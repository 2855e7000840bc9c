package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/service"
	"repro/internal/service/client"
)

// progSpec wraps a program into a job spec.
func progSpec(p *program.Program, seed int64) service.JobSpec {
	return service.JobSpec{Program: p, System: "tsoper", Seed: seed}
}

// smallProgram is a two-core program cheap enough for unit tests, written
// in a deliberately redundant surface form.
func smallProgram() *program.Program {
	return &program.Program{
		Version: 1,
		Name:    "svc-test",
		Doc:     "surface form A",
		Cores: []program.CoreProg{
			{Instrs: []program.Instr{
				{Op: program.OpStoreBurst, Count: 40},
				{Op: program.OpStoreBurst, Count: 60},
				{Op: program.OpFence},
				{Op: program.OpEpoch},
			}},
			{Instrs: []program.Instr{
				{Op: program.OpLoadScan, Count: 50},
				{Op: program.OpLock, Line: 3},
			}},
		},
	}
}

// equivalentProgram is a different surface spelling of smallProgram: the
// merged burst is split through a loop and the doc string differs. Its
// canonical form — and therefore its cache key — must match.
func equivalentProgram() *program.Program {
	return &program.Program{
		Version: 1,
		Name:    "svc-test",
		Doc:     "surface form B, reordered fields and looped bursts",
		Cores: []program.CoreProg{
			{Instrs: []program.Instr{
				{Op: program.OpLoop, Times: 4, Body: []program.Instr{
					{Op: program.OpStoreBurst, Count: 25},
				}},
				{Op: program.OpFence},
				{Op: program.OpEpoch},
			}},
			{Instrs: []program.Instr{
				{Op: program.OpLoadScan, Count: 20},
				{Op: program.OpLoadScan, Count: 30},
				{Op: program.OpLock, Line: 3},
			}},
		},
	}
}

// TestProgramJobRunsAndMatchesDirect proves the service's program path is
// the same computation as the in-process harness path.
func TestProgramJobRunsAndMatchesDirect(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	body, st, err := c.Run(ctx, progSpec(smallProgram(), 9))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.CacheHit {
		t.Fatal("first submission must not be a cache hit")
	}

	res, err := harness.RunProgramConfigChecked(smallProgram(), machine.TableI(machine.TSOPER), harness.Options{Seed: 9})
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	var direct bytes.Buffer
	if err := res.Snapshot().WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, direct.Bytes()) {
		t.Fatalf("service result differs from direct harness run:\nservice: %s\ndirect:  %s", body, direct.Bytes())
	}
}

// TestProgramCanonicalFormSharesCache is the acceptance criterion: an
// equivalent program in a different surface form (different instruction
// order, loops instead of merged bursts, different doc) is a cache hit.
func TestProgramCanonicalFormSharesCache(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	first, st1, err := c.Run(ctx, progSpec(smallProgram(), 3))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}

	second, st2, err := c.Run(ctx, progSpec(equivalentProgram(), 3))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if st1.Key != st2.Key {
		t.Fatalf("equivalent programs got different cache keys:\n%s\n%s", st1.Key, st2.Key)
	}
	if !st2.CacheHit {
		t.Fatal("equivalent resubmission was not a cache hit")
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache returned different bytes")
	}

	// A genuinely different program must not collide.
	other := smallProgram()
	other.Cores[0].Instrs[0].Count = 41
	st3, err := c.Submit(ctx, progSpec(other, 3))
	if err != nil {
		t.Fatalf("third submit: %v", err)
	}
	if st3.Key == st1.Key {
		t.Fatal("different programs share a cache key")
	}
}

// TestProgramJobTakesOneCacheSlot: a program job stores its result
// document and nothing else, so cache entries and evictions count results.
func TestProgramJobTakesOneCacheSlot(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4})
	p, err := program.ByName("producer-consumer-ring")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		if _, _, err := c.Run(context.Background(), progSpec(p, seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if n := srv.Metrics().Cache.Entries; n != 2 {
		t.Fatalf("cache entries = %d after two program jobs, want 2", n)
	}
}

// TestProgramOverBudget is the admission-control acceptance criterion:
// an over-budget program is rejected with 429 and the response body carries
// the cost estimate and the budget.
func TestProgramOverBudget(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4, MaxProgramOps: 1000})
	ctx := context.Background()

	big := &program.Program{
		Version: 1,
		Name:    "too-big",
		Cores: []program.CoreProg{
			{Instrs: []program.Instr{{Op: program.OpStoreBurst, Count: 2000}}},
		},
	}
	_, err := c.Submit(ctx, progSpec(big, 1))
	if err == nil {
		t.Fatal("over-budget program was admitted")
	}
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("error is %T, want *client.APIError: %v", err, err)
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", apiErr.Status)
	}
	var body struct {
		Error    string           `json:"error"`
		Estimate program.Estimate `json:"estimate"`
		Budget   int              `json:"budget"`
	}
	if err := json.Unmarshal(apiErr.Body, &body); err != nil {
		t.Fatalf("429 body is not the estimate document: %v (%q)", err, apiErr.Body)
	}
	if body.Estimate.Ops != 2000 {
		t.Fatalf("estimate reports %d ops, want 2000", body.Estimate.Ops)
	}
	if body.Budget != 1000 {
		t.Fatalf("budget reports %d, want 1000", body.Budget)
	}

	// An in-budget program on the same server still runs.
	if _, _, err := c.Run(ctx, progSpec(smallProgram(), 1)); err != nil {
		t.Fatalf("in-budget program failed: %v", err)
	}
}

// TestRunOverBudgetNotRetried: the over-budget 429 is permanent (it carries
// no Retry-After), so Run surfaces it after a single submission, estimate
// body intact, instead of resubmitting a program that cannot be admitted.
func TestRunOverBudgetNotRetried(t *testing.T) {
	srv, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4, MaxProgramOps: 1000})
	big := &program.Program{
		Version: 1,
		Name:    "too-big",
		Cores: []program.CoreProg{
			{Instrs: []program.Instr{{Op: program.OpStoreBurst, Count: 2000}}},
		},
	}
	_, _, err := c.Run(context.Background(), progSpec(big, 1))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("Run err = %v, want the over-budget 429 *client.APIError", err)
	}
	var body struct {
		Estimate program.Estimate `json:"estimate"`
	}
	if err := json.Unmarshal(apiErr.Body, &body); err != nil || body.Estimate.Ops != 2000 {
		t.Fatalf("429 body %q does not carry the 2000-op estimate (%v)", apiErr.Body, err)
	}
	if n := srv.Metrics().JobsRejected; n != 1 {
		t.Fatalf("JobsRejected = %d, want 1: Run resubmitted a permanent rejection", n)
	}
}

func TestProgramBadSpecs(t *testing.T) {
	_, c := startServer(t, service.Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()

	both := progSpec(smallProgram(), 1)
	both.Bench = "radix"
	if _, err := c.Submit(ctx, both); err == nil {
		t.Fatal("spec with both bench and program admitted")
	}

	scaled := progSpec(smallProgram(), 1)
	scaled.Scale = 0.5
	if _, err := c.Submit(ctx, scaled); err == nil {
		t.Fatal("program spec with scale admitted")
	}

	invalid := progSpec(&program.Program{Version: 1, Name: "x", Cores: []program.CoreProg{
		{Instrs: []program.Instr{{Op: "warp"}}},
	}}, 1)
	if _, err := c.Submit(ctx, invalid); err == nil {
		t.Fatal("invalid program admitted")
	}
}
