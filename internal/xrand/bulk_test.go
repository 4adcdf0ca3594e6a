package xrand

import (
	"testing"
)

// TestSeedStreamMatchesNewStream pins the in-place reseeding contract: a
// recycled generator must continue the exact sequence a freshly constructed
// stream would produce.
func TestSeedStreamMatchesNewStream(t *testing.T) {
	r := New(1)
	for _, tc := range []struct{ seed, stream uint64 }{
		{0, 0}, {7, 3}, {7, 4}, {42, 1 << 40}, {^uint64(0), 99},
	} {
		r.SeedStream(tc.seed, tc.stream)
		want := NewStream(tc.seed, tc.stream)
		for i := 0; i < 16; i++ {
			if g, w := r.Uint64(), want.Uint64(); g != w {
				t.Fatalf("SeedStream(%d,%d) diverges at draw %d: %d vs %d", tc.seed, tc.stream, i, g, w)
			}
		}
	}
}

// TestFillUint64MatchesScalar pins the raw bulk draw to the scalar sequence:
// batching a slot's worth of uniform words must not change the sample path.
func TestFillUint64MatchesScalar(t *testing.T) {
	bulk := NewStream(17, 4)
	scalar := NewStream(17, 4)
	dst := make([]uint64, 513)
	bulk.FillUint64(dst)
	for i, v := range dst {
		if w := scalar.Uint64(); v != w {
			t.Fatalf("FillUint64[%d] = %d, Uint64 = %d", i, v, w)
		}
	}
	// The states must also agree afterwards, so mixed bulk/scalar use works.
	if g, w := bulk.Uint64(), scalar.Uint64(); g != w {
		t.Fatalf("state diverges after bulk fill: %d vs %d", g, w)
	}
}

// TestFillExpMatchesScalar checks that bulk exponential generation consumes
// the stream exactly like repeated Exp calls, bit for bit.
func TestFillExpMatchesScalar(t *testing.T) {
	for _, rate := range []float64{0.1, 1, 3.7} {
		bulk := NewStream(11, 2)
		scalar := NewStream(11, 2)
		dst := make([]float64, 257)
		bulk.FillExp(dst, rate)
		for i, v := range dst {
			if w := scalar.Exp(rate); v != w {
				t.Fatalf("rate %v: FillExp[%d] = %v, Exp = %v", rate, i, v, w)
			}
		}
	}
}

// TestFillPoissonMatchesScalar checks both the Knuth and the PTRS regime.
func TestFillPoissonMatchesScalar(t *testing.T) {
	for _, mean := range []float64{0, 0.35, 2, 29.9, 30, 250} {
		bulk := NewStream(5, 9)
		scalar := NewStream(5, 9)
		dst := make([]int, 300)
		bulk.FillPoisson(dst, mean)
		for i, v := range dst {
			if w := scalar.Poisson(mean); v != w {
				t.Fatalf("mean %v: FillPoisson[%d] = %d, Poisson = %d", mean, i, v, w)
			}
		}
	}
}

func TestFillPanics(t *testing.T) {
	r := New(1)
	for name, fn := range map[string]func(){
		"FillExp rate 0": func() { r.FillExp(make([]float64, 1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkExpScalar(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Exp(1.5)
	}
}

func BenchmarkFillExp(b *testing.B) {
	r := New(1)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		r.FillExp(dst, 1.5)
	}
}

func BenchmarkPoissonScalarSmallMean(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(0.35)
	}
}

func BenchmarkFillPoissonSmallMean(b *testing.B) {
	r := New(1)
	dst := make([]int, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		r.FillPoisson(dst, 0.35)
	}
}
