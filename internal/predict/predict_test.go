package predict

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 100 {
		t.Fatalf("N = %v", h.N())
	}
	p50 := h.Quantile(0.50)
	if p50 < ms(49) || p50 > ms(52) {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < ms(98) || p99 > ms(101) {
		t.Fatalf("p99 = %v", p99)
	}
	mean := h.Mean()
	if mean < ms(49) || mean > ms(52) {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram()
	h.Add(-5 * time.Millisecond) // clamps to bin 0
	h.Add(time.Hour)             // clamps to last bin
	if h.N() != 2 {
		t.Fatalf("N = %v", h.N())
	}
	if h.Quantile(1.0) > 10*time.Second {
		t.Fatalf("clamped max = %v", h.Quantile(1.0))
	}
}

// TestConvolveMeansAdd: E[X+Y] = E[X] + E[Y].
func TestConvolveMeansAdd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 5000; i++ {
		a.Add(time.Duration(1e6 + r.Intn(4e6)))
		b.Add(time.Duration(2e6 + r.Intn(6e6)))
	}
	c := Convolve(a, b)
	want := a.Mean() + b.Mean()
	got := c.Mean()
	if math.Abs(float64(got-want)) > float64(time.Millisecond) {
		t.Fatalf("conv mean = %v, want ~%v", got, want)
	}
	// Convolution against nil/empty is identity.
	if d := Convolve(nil, a); math.Abs(float64(d.Mean()-a.Mean())) > float64(BinWidth) {
		t.Fatalf("identity conv mean = %v vs %v", d.Mean(), a.Mean())
	}
	if d := Convolve(a, NewHistogram()); math.Abs(float64(d.Mean()-a.Mean())) > float64(BinWidth) {
		t.Fatalf("identity conv (empty) mean = %v vs %v", d.Mean(), a.Mean())
	}
}

// TestConvolveDeterministic: point masses add exactly.
func TestConvolveDeterministic(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Add(ms(10))
	b.Add(ms(25))
	c := Convolve(a, b)
	got := c.Quantile(0.5)
	if got < ms(34) || got > ms(36) {
		t.Fatalf("10ms + 25ms = %v", got)
	}
}

func TestRoundUp(t *testing.T) {
	grid := []int{1, 10, 50}
	cases := map[int]int{0: 1, 1: 1, 2: 10, 10: 10, 11: 50, 50: 50, 999: 50}
	for in, want := range cases {
		if got := roundUp(grid, in); got != want {
			t.Errorf("roundUp(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTrainAndPredict(t *testing.T) {
	model, err := Train(quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if model.Intervals() != 4 {
		t.Fatalf("intervals = %d", model.Intervals())
	}
	// A single-get query predicts low, positive latency.
	p1, err := model.PredictOps([]Op{{Kind: KindLookup, Alpha: 1, Beta: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Max99 <= 0 || p1.Max99 > 100*time.Millisecond {
		t.Fatalf("single-get p99 = %v", p1.Max99)
	}
	// A larger plan predicts strictly more.
	p2, err := model.PredictOps([]Op{
		{Kind: KindScan, Alpha: 50, Beta: 40},
		{Kind: KindSortedJoin, Alpha: 50, AlphaJ: 10, Beta: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Max99 <= p1.Max99 {
		t.Fatalf("bigger plan predicted faster: %v vs %v", p2.Max99, p1.Max99)
	}
	if len(p2.Per99) != 4 {
		t.Fatalf("per-interval count = %d", len(p2.Per99))
	}
	if p2.Mean99 > p2.Max99 {
		t.Fatalf("mean99 %v > max99 %v", p2.Mean99, p2.Max99)
	}
	// SLO verdicts are monotone in the target.
	if p2.MeetsSLO(time.Nanosecond, 0.9) {
		t.Fatal("impossible SLO passed")
	}
	if !p2.MeetsSLO(time.Minute, 0.9) {
		t.Fatal("trivial SLO failed")
	}
	if q := p2.Quantile99(0.5); q <= 0 || q > p2.Max99 {
		t.Fatalf("median of per-interval p99s = %v", q)
	}
}

func TestPredictErrors(t *testing.T) {
	model, err := Train(quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.PredictOps(nil); err == nil {
		t.Fatal("empty op list accepted")
	}
	if _, err := Train(TrainConfig{}); err == nil {
		t.Fatal("zero-interval training accepted")
	}
}

// TestPredictionIsConservative: predicted p99 for an operator should be
// at or above the latency actually measured for that operator shape
// (the model rounds α and β up and takes bin upper edges).
func TestPredictionConservativeOrdering(t *testing.T) {
	model, err := Train(quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, _ := model.PredictOps([]Op{{Kind: KindScan, Alpha: 1, Beta: 40}})
	big, _ := model.PredictOps([]Op{{Kind: KindScan, Alpha: 50, Beta: 200}})
	if big.Max99 < small.Max99 {
		t.Fatalf("bigger scan predicted faster: %v < %v", big.Max99, small.Max99)
	}
}

// TestTrainedSortedJoinIsConcurrent: training reads a sorted join's αc
// ranges as one set under Parallel, as the executor's default strategy
// does, so its latency is the slowest range's, not their sum: 50 ranges
// cost a small multiple of one range, where one after another they cost
// over 20 times as much.
func TestTrainedSortedJoinIsConcurrent(t *testing.T) {
	model, err := Train(quickTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	one, err := model.PredictOps([]Op{{Kind: KindSortedJoin, Alpha: 1, AlphaJ: 1, Beta: 40}})
	if err != nil {
		t.Fatal(err)
	}
	fifty, err := model.PredictOps([]Op{{Kind: KindSortedJoin, Alpha: 50, AlphaJ: 1, Beta: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if fifty.Max99 >= 4*one.Max99 {
		t.Fatalf("SortedJoin(αc=50, αj=1) p99 %v, SortedJoin(αc=1, αj=1) %v: 50 ranges must cost under 4 times one range", fifty.Max99, one.Max99)
	}
}

func TestHistogramSizeReported(t *testing.T) {
	h := NewHistogram()
	h.Add(ms(100))
	if h.SizeBytes() <= 0 {
		t.Fatal("size not reported")
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}
