package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envStamp records where and from what a report was measured.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit and Dirty come from the VCS stamp `go build` embeds; a build
	// outside a git checkout has neither.
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`
	Seed      int64  `json:"seed"`
	Timestamp string `json:"timestamp"`
}

func stamp(seed int64) envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Dirty = s.Value == "true"
			}
		}
	}
	return e
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
