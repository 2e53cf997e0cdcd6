// The run header and the traced run's spans. Spans are recorded by the
// benchmark around its calls into each layer, kept in memory, and
// written once at the end as a gzipped Chrome trace_event file.

package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// runHeader describes the host and build a result was measured on, so
// results from different hosts or revisions are never compared blindly.
type runHeader struct {
	GoVersion   string  `json:"go_version"`
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	CPUModel    string  `json:"cpu_model"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	AVX2        bool    `json:"avx2"`
	VCSRevision string  `json:"vcs_revision"`
	VCSModified bool    `json:"vcs_modified"`
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
}

func newRunHeader(workload string, seed int64, seconds float64, trace bool) runHeader {
	h := runHeader{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		VCSRevision: "unknown",
		Workload:    workload,
		Seed:        seed,
		Seconds:     seconds,
		Trace:       trace,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPUModel, h.AVX2 = parseCPUInfo(string(data))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.VCSRevision = s.Value
			case "vcs.modified":
				h.VCSModified = s.Value == "true"
			}
		}
	}
	return h
}

// parseCPUInfo returns the first "model name" and whether the first
// "flags" line lists avx2.
func parseCPUInfo(text string) (model string, avx2 bool) {
	seenFlags := false
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if !seenFlags {
				seenFlags = true
				for _, f := range strings.Fields(val) {
					if f == "avx2" {
						avx2 = true
					}
				}
			}
		}
	}
	return model, avx2
}

// span is one timed call into a layer. Spans of one request or one sort
// call share id; parent names the enclosing span of the same id ("" at
// the root). Times are nanoseconds from the run's clock origin.
type span struct {
	name, parent string
	id           int64
	start, end   int64
}

// tracer holds a traced run's spans until the run ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(name, parent string, id, start, end int64) {
	t.spans = append(t.spans, span{name: name, parent: parent, id: id, start: start, end: end})
}

// write stores the spans as a gzipped Chrome trace_event document, one
// row per span name, with the run header as its metadata.
func (t *tracer) write(path string, h runHeader) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	meta, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\"otherData\":%s,\"traceEvents\":[", meta)
	rows := map[string]int{}
	us := func(ns int64) string { return strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64) }
	for i, s := range t.spans {
		row, ok := rows[s.name]
		if !ok {
			row = len(rows) + 1
			rows[s.name] = row
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%d,\"parent\":%q}}",
			s.name, row, us(s.start), us(s.end-s.start), s.id, s.parent)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
