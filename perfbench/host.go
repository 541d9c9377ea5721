package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// hostStamp identifies where and from what a result was measured.
// Results measured under different stamps are not comparable.
type hostStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"` // "true", "false" or "unknown"
}

// stampHost reads the stamp. The commit and dirty flag come from git
// when the working directory is the top of a git checkout, and read
// "unknown" otherwise (an exported source tree has no history).
func stampHost() hostStamp {
	s := hostStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if _, err := os.Stat(".git"); err != nil {
		return s
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
		s.Dirty = fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
	}
	return s
}

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

// diff lists the fields in which two stamps differ.
func (s hostStamp) diff(o hostStamp) []string {
	var out []string
	field := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v → %v", name, a, b))
		}
	}
	field("gomaxprocs", o.GOMAXPROCS, s.GOMAXPROCS)
	field("num_cpu", o.NumCPU, s.NumCPU)
	field("cpu_model", o.CPUModel, s.CPUModel)
	field("go_version", o.GoVersion, s.GoVersion)
	field("commit", o.Commit, s.Commit)
	field("dirty", o.Dirty, s.Dirty)
	return out
}

// record is one run's line in the results log.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     hostStamp          `json:"host"`
	Inputs   map[string]float64 `json:"inputs"`
	Metrics  map[string]float64 `json:"metrics"`
	Correct  bool               `json:"correct"`
}

// appendRecord adds rec to the results log at path and returns the
// fields in which its stamp differs from the previous record of the
// same workload and mode — a comparison across those two results
// would mix hosts, toolchains or code.
func appendRecord(path string, rec record) ([]string, error) {
	var prev *record
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var r record
			if json.Unmarshal([]byte(line), &r) == nil && r.Workload == rec.Workload && r.Trace == rec.Trace {
				prev = &r
			}
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if prev == nil {
		return nil, nil
	}
	return rec.Host.diff(prev.Host), nil
}
