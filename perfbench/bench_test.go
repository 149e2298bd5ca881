package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks
// the printed metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// tinyRun runs one workload at tiny sizes and returns its decoded result
// line and the report printed before it.
func tinyRun(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	cfg.sz = tinySizes
	cfg.seconds = 0.01
	cfg.dir = t.TempDir()
	var out bytes.Buffer
	res, err := bench(cfg, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	line, err := res.encode()
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return &back, out.String()
}

func TestTinyRunsPrintEveryMetric(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	reportOnly := []string{"fail_ratio", "sim.locality", "sim.job_fail_ratio", "sim.gmtt_s"}
	for _, bw := range bf.Workloads {
		w := workloadByName(bw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown", bw.Name)
		}
		for _, trace := range []bool{false, true} {
			res, report := tinyRun(t, config{workload: w, seed: 3, trace: trace})
			if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, report)
			}
			if !w.durable && res.Failed != 0 {
				t.Errorf("%s trace=%v: %d simulations failed\n%s", w.name, trace, res.Failed, report)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			for _, name := range reportOnly {
				if !strings.Contains(report, name) {
					t.Errorf("%s trace=%v: report lacks %s", w.name, trace, name)
				}
			}
		}
	}
}

func TestTamperedDigestCountsAsFailed(t *testing.T) {
	res, report := tinyRun(t, config{workload: workloadByName("swim-fair"), seed: 3, tamperDigest: true})
	if res.Failed != 1 || res.Correct {
		t.Fatalf("tampered digest: failed=%d correct=%v, want 1 failed and not correct\n%s", res.Failed, res.Correct, report)
	}
	if !strings.Contains(report, "digest") {
		t.Fatalf("report does not name the digest mismatch:\n%s", report)
	}
}

func TestForcedErrorCountsAsFailed(t *testing.T) {
	for _, name := range []string{"scale-20k", "faults-durable"} {
		res, report := tinyRun(t, config{workload: workloadByName(name), seed: 3, forceError: true})
		if res.Failed < 1 || !strings.Contains(report, "no-such-scheduler") {
			t.Fatalf("%s: forced error: failed=%d\n%s", name, res.Failed, report)
		}
	}
}

func TestLogSinkSegments(t *testing.T) {
	whole := newLogSink(0, nil)
	stream := []byte("abcdefghijklmnopqrstuvwxyz")
	var offsets []int64
	for i, chunk := range [][]byte{stream[:5], stream[5:12], stream[12:20], stream[20:]} {
		whole.Write(chunk)
		if i < 3 {
			offsets = append(offsets, whole.cut())
		}
	}
	whole.cut()
	// A sink fed the suffix from the second cut, in other chunk sizes,
	// must cut at the same stream positions.
	suffix := newLogSink(offsets[1], offsets[2:])
	suffix.Write(stream[12:15])
	suffix.Write(stream[15:])
	if !suffix.sameSegments(whole.segs[2:]) {
		t.Fatal("suffix segments differ from the whole stream's")
	}
	other := newLogSink(offsets[1], offsets[2:])
	other.Write([]byte("XXXXXXXXXXXXXX"))
	if other.sameSegments(whole.segs[2:]) {
		t.Fatal("a different suffix compared equal")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h latencyHist
	for v := 1; v <= 1000; v++ {
		h.add(time.Duration(v))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}} {
		if got := h.quantile(c.q); got < c.want*0.94 || got > c.want*1.06 {
			t.Errorf("quantile(%v) = %v, want about %v", c.q, got, c.want)
		}
	}
}
