package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public API, made from the
// benchmark's own files. Parent is the span that caused it, or -1 for an
// interaction's root. In a ladder the child of a span is the replay of
// the same work one layer lower, so it lies after its parent, not inside
// it; the self-time arithmetic is the same either way.
type span struct {
	ID          int32  `json:"id"`
	Parent      int32  `json:"parent"`
	Interaction int32  `json:"interaction"`
	Name        string `json:"name"` // layer.op
	StartNs     int64  `json:"start_ns"`
	EndNs       int64  `json:"end_ns"`
	Window      int32  `json:"window"` // index into traceFile.WindowScale
}

// tracer keeps spans in memory; a nil *tracer is tracing off.
type tracer struct {
	t0          time.Time
	spans       []span
	interaction int32
	window      int32
	scales      []float64 // per window: raw ns → normalised ns
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Interaction: t.interaction, Name: name,
		Window: t.window, StartNs: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].EndNs = int64(time.Since(t.t0)) }

// normUs is a span's duration in normalised µs.
func (t *tracer) normUs(s span) float64 {
	return float64(s.EndNs-s.StartNs) * t.scales[s.Window] / 1e3
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	calls           int
	totalUs, selfUs float64
}

// byName sums, per span name, the normalised duration and the self time:
// a span's duration minus its children's. Self time is summed before any
// clipping, so a noisy negative on one span cancels against its
// neighbours instead of biasing the layer upward.
func (t *tracer) byName() map[string]*layerTime {
	children := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += t.normUs(s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		d := t.normUs(s)
		lt.calls++
		lt.totalUs += d
		lt.selfUs += d - children[s.ID]
	}
	return out
}

type traceFile struct {
	Workload    string    `json:"workload"`
	Seed        int64     `json:"seed"`
	WindowScale []float64 `json:"window_scale"`
	Spans       []span    `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, WindowScale: t.scales, Spans: t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
