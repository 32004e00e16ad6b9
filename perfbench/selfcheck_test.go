package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the metric
// lists in main.go in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metric
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, main.go %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, main.go %+v", c.what, i, m, w)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, main.go %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds the benchmark program and the daemon once, and returns
// their paths.
func binaries(t *testing.T) (bench, daemon string) {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin")
		if buildErr != nil {
			return
		}
		for _, args := range [][]string{
			{"build", "-o", filepath.Join(binDir, "perfbench"), "."},
			{"build", "-o", filepath.Join(binDir, "kaleidod"), "kaleido/cmd/kaleidod"},
		} {
			out, err := exec.Command("go", args...).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go %v: %v\n%s", args, err, out)
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "perfbench"), filepath.Join(binDir, "kaleidod")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// toyOptions are the options of a toy-size run of workload.
func toyOptions(t *testing.T, workload string) *options {
	opt := &options{workload: workload, seed: 3, seconds: 0.5, toy: true, workdir: t.TempDir()}
	if workload == "served-mix" {
		_, opt.daemon = binaries(t)
		opt.seconds = 5 // long enough to cover a traced sampling window
	}
	return opt
}

// toyRun runs one workload at toy size.
func toyRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	opt := toyOptions(t, workload)
	opt.trace = trace
	out := newOutcome()
	if err := workloads[workload](context.Background(), opt, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestToyWorkloads runs every workload at toy size, timed and traced: the
// outputs must check out, every end-to-end metric must be measured, and the
// traced run must measure every per-layer metric of the workload's layers.
func TestToyWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			out := toyRun(t, name, false)
			if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("attempted %d failed %d problems %v", out.attempted, out.failed, out.problems)
			}
			for _, d := range endToEnd {
				if v, ok := out.e2e[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v (measured %v)", d.name, v, ok)
				}
			}
			traced := toyRun(t, name, true)
			if len(traced.problems) > 0 || traced.failed > 0 {
				t.Fatalf("traced run: failed %d problems %v", traced.failed, traced.problems)
			}
			vals := traced.layerValues()
			for m := range ownLayer(name) {
				if _, ok := vals[m]; !ok {
					t.Errorf("traced run did not measure %s", m)
				}
			}
		})
	}
}

// TestTamperedAnswerFails runs the built program on every workload with one
// expected answer corrupted: it must print a result with "correct": false
// and exit with status 1.
func TestTamperedAnswerFails(t *testing.T) {
	bench, daemon := binaries(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			opt := toyOptions(t, name)
			cmd := exec.Command(bench, "-workload", name, "-seed", fmt.Sprint(opt.seed),
				"-seconds", fmt.Sprint(opt.seconds), "-trace", "0", "-toy", "-tamper",
				"-daemon", daemon, "-workdir", opt.workdir)
			stdout, err := cmd.Output()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("tampered run: exit %v, want status 1\n%s", err, stdout)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var res struct{ Correct *bool }
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct == nil || *res.Correct {
				t.Fatalf("tampered run: last line %q, want a result with \"correct\": false", lines[len(lines)-1])
			}
		})
	}
}
