package bimodal

import (
	"testing"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

func TestLearnsBiasedBranch(t *testing.T) {
	p := New(1024)
	pc := uint64(0x400100)
	for i := 0; i < 10; i++ {
		p.Update(pc, true, 0)
	}
	if !p.Predict(pc) {
		t.Fatal("should predict taken after taken training")
	}
	for i := 0; i < 10; i++ {
		p.Update(pc, false, 0)
	}
	if p.Predict(pc) {
		t.Fatal("should predict not-taken after not-taken training")
	}
}

func TestHysteresis(t *testing.T) {
	p := New(1024)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		p.Update(pc, true, 0)
	}
	p.Update(pc, false, 0) // single anomaly must not flip a saturated counter
	if !p.Predict(pc) {
		t.Fatal("one contrary outcome flipped a saturated 2-bit counter")
	}
}

func TestNearPerfectOnBiasedStream(t *testing.T) {
	p := New(4096)
	recs := make(trace.Slice, 20000)
	for i := range recs {
		pc := uint64(0x1000 + (i%64)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%8 == 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.001 {
		t.Fatalf("bimodal on biased stream mispredicts %.4f, want ~0", st.MispredictRate())
	}
}

func TestAliasingDistinctEntries(t *testing.T) {
	p := New(16)
	// PCs 0x0 and 0x40 (>>2 = 0 and 16) alias in a 16-entry table.
	for i := 0; i < 4; i++ {
		p.Update(0x0, true, 0)
	}
	if !p.Predict(0x40) {
		t.Fatal("aliased PCs should share an entry")
	}
}

func TestStorage(t *testing.T) {
	p := New(16384)
	if got := p.Storage().TotalBits(); got != 32768 {
		t.Fatalf("storage = %d bits, want 32768", got)
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(100) did not panic")
		}
	}()
	New(100)
}
