package litmus

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/faultplan"
	"repro/internal/machine"
)

// TestForkedMatchesReplay is the differential gate for the forked sweep:
// exploring with one machine advanced through each perturbation's ascending
// crash points must give a Result byte-identical to the reference that
// replays a fresh machine from cycle 0 per point. It covers no fault plan,
// both runtime fault presets, a crash fault that corrupts groups the
// captures share, and the tardis backend.
func TestForkedMatchesReplay(t *testing.T) {
	tests, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	preset := func(name string) *faultplan.Spec {
		p, ok := faultplan.Preset(name)
		if !ok {
			t.Fatalf("missing fault preset %q", name)
		}
		return &p
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"clean", func(*Options) {}},
		{"nvm-transient", func(o *Options) { o.Faults = preset("nvm-transient") }},
		{"noc-lossy", func(o *Options) { o.Faults = preset("noc-lossy") }},
		{"skip-dep", func(o *Options) { o.Fault = mustFault(t, "skip-dep") }},
		{"tardis", func(o *Options) { o.Coherence = machine.CoherenceTardis }},
	}
	if testing.Short() {
		variants = variants[:1]
	}
	for _, v := range variants {
		for _, tt := range tests {
			v, tt := v, tt
			t.Run(v.name+"/"+tt.Name, func(t *testing.T) {
				t.Parallel()
				o := Default()
				v.set(&o)
				forked, err := json.Marshal(Explore(tt, o))
				if err != nil {
					t.Fatal(err)
				}
				o.replay = true
				replayed, err := json.Marshal(Explore(tt, o))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(forked, replayed) {
					t.Fatalf("forked and replayed results differ:\nforked:   %s\nreplayed: %s", forked, replayed)
				}
			})
		}
	}
}
