package simpoint

import (
	"testing"

	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// clusteredVectors builds n vectors around k well-separated centers.
func clusteredVectors(n, k, dim int, seed uint64) ([][]float64, []int) {
	rng := xrand.New(seed)
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = make([]float64, dim)
		for d := range centers[i] {
			centers[i][d] = float64(rng.Intn(20)) - 10
		}
	}
	vecs := make([][]float64, n)
	truth := make([]int, n)
	for i := range vecs {
		c := i % k
		truth[i] = c
		v := make([]float64, dim)
		for d := range v {
			v[d] = centers[c][d] + rng.NormFloat64()*0.05
		}
		vecs[i] = v
	}
	return vecs, truth
}

func TestKMeansRecoversClusters(t *testing.T) {
	vecs, truth := clusteredVectors(120, 3, 8, 1)
	res := KMeans(vecs, 3, 42)
	if res.K != 3 {
		t.Fatalf("K = %d", res.K)
	}
	// Same-truth points must share labels; different-truth points differ.
	label := map[int]int{}
	for i, l := range res.Labels {
		if want, ok := label[truth[i]]; ok {
			if l != want {
				t.Fatalf("cluster split: point %d", i)
			}
		} else {
			label[truth[i]] = l
		}
	}
	if len(label) != 3 || label[0] == label[1] || label[1] == label[2] || label[0] == label[2] {
		t.Errorf("clusters merged: %v", label)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vecs, _ := clusteredVectors(60, 4, 6, 2)
	a := KMeans(vecs, 4, 9)
	b := KMeans(vecs, 4, 9)
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("k-means not deterministic for equal seeds")
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if res := KMeans(nil, 3, 1); res.K != 0 {
		t.Error("empty input should return K=0")
	}
	vecs := [][]float64{{1, 1}, {2, 2}}
	res := KMeans(vecs, 5, 1)
	if res.K != 2 {
		t.Errorf("k must clamp to n: %d", res.K)
	}
	// Identical points: must not loop or crash.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}}
	res = KMeans(same, 2, 1)
	if res.Inertia != 0 {
		t.Errorf("identical points inertia = %v", res.Inertia)
	}
}

func TestChooseKFindsPlantedK(t *testing.T) {
	vecs, _ := clusteredVectors(150, 5, 10, 3)
	res := ChooseK(vecs, 12, 7)
	if res.K < 4 || res.K > 7 {
		t.Errorf("ChooseK = %d for 5 planted clusters", res.K)
	}
}

func TestChooseKSingleCluster(t *testing.T) {
	vecs, _ := clusteredVectors(60, 1, 8, 4)
	res := ChooseK(vecs, 8, 7)
	if res.K > 2 {
		t.Errorf("ChooseK = %d for a single tight cluster", res.K)
	}
}

func TestBBVCollectorSlices(t *testing.T) {
	col := NewBBVCollector(100, 8)
	inst := trace.Inst{Kind: trace.KindCondBr, IP: 0xA0}
	other := trace.Inst{Kind: trace.KindALU}
	for i := uint64(0); i < 350; i++ {
		if i%3 == 0 {
			col.Inst(i, &inst)
		} else {
			col.Inst(i, &other)
		}
	}
	vecs := col.Vectors()
	if len(vecs) != 4 {
		t.Fatalf("vectors = %d, want 4 (3 full slices + partial)", len(vecs))
	}
	for i, v := range vecs {
		if len(v) != 8 {
			t.Fatalf("vector %d has dim %d", i, len(v))
		}
	}
}

func TestBBVDistinguishesPhases(t *testing.T) {
	// Phase A executes branches 1..10, phase B branches 100..110; the
	// projected vectors must cluster by phase.
	col := NewBBVCollector(1000, DefaultDim)
	var gi uint64
	emit := func(base uint64, n int) {
		for i := 0; i < n; i++ {
			inst := trace.Inst{Kind: trace.KindCondBr, IP: base + uint64(i%10)*64}
			col.Inst(gi, &inst)
			gi++
		}
	}
	for rep := 0; rep < 4; rep++ {
		emit(0x1000, 1000) // slice of phase A
		emit(0x9000, 1000) // slice of phase B
	}
	res := ChooseK(col.Vectors(), 6, 1)
	if res.K != 2 {
		t.Fatalf("phases detected = %d, want 2", res.K)
	}
	for i := 0; i+2 < len(res.Labels); i += 2 {
		if res.Labels[i] != res.Labels[0] || res.Labels[i+1] != res.Labels[1] {
			t.Fatalf("alternating phases not recovered: %v", res.Labels)
		}
	}
}

func TestPhasesEndToEnd(t *testing.T) {
	b := trace.NewBuffer(0)
	for rep := 0; rep < 6; rep++ {
		base := uint64(0x1000)
		if rep%2 == 1 {
			base = 0x8000
		}
		for i := 0; i < 500; i++ {
			b.Append(trace.Inst{Kind: trace.KindCondBr, IP: base + uint64(i%7)*64})
		}
	}
	res := Phases(b.BlockStream(0), 500, 5)
	if res.K != 2 {
		t.Errorf("Phases found K=%d, want 2", res.K)
	}
}

func TestBBVCollectorPanicsOnZeroSlice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero slice length")
		}
	}()
	NewBBVCollector(0, 8)
}
