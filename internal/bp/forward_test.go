package bp_test

import (
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/cnn"
	"branchlab/internal/phase"
)

// trainCall is one Train call an inner predictor received.
type trainCall struct {
	target    uint64
	pred      bool
	predicted bool // what the inner's own Predict last returned
}

// recorder is a fake inner predictor: it predicts a fixed, varied
// direction sequence, offset by n so that two recorders disagree, and
// logs every Train call into a shared log.
type recorder struct {
	log  *[]trainCall
	n    int
	last bool
}

func (r *recorder) Predict(uint64) bool {
	r.n++
	r.last = r.n%3 != 0
	return r.last
}

func (r *recorder) Train(_, target uint64, _, pred bool) {
	*r.log = append(*r.log, trainCall{target: target, pred: pred, predicted: r.last})
}

func (r *recorder) Name() string { return "recorder" }

// TestWrappersForwardTargetAndOwnPrediction drives every wrapper
// predictor over recorders and checks each inner Train call: it gets
// the target the wrapper was trained with, and as pred the value the
// inner's own Predict returned, never the wrapper's final prediction.
func TestWrappersForwardTargetAndOwnPrediction(t *testing.T) {
	rows := []struct {
		name  string
		wrap  func(mk func() bp.Predictor) bp.Predictor
		inner int // inner Train calls per wrapper Train
		// overrides: the wrapper's prediction can differ from an inner's,
		// so the pred check can tell the two apart.
		overrides bool
		// zeroTarget: the wrapper trains its inner predictor with target
		// 0. Only cnn.Overlay does, to keep the cnn artifact's bytes
		// until ROADMAP item 1 fix 2 passes the target.
		zeroTarget bool
	}{
		{name: "tournament", inner: 2, overrides: true, wrap: func(mk func() bp.Predictor) bp.Predictor {
			return bp.NewTournament(mk(), mk(), 4)
		}},
		{name: "ppm", inner: 1, overrides: true, wrap: func(mk func() bp.Predictor) bp.Predictor {
			p := bp.NewPPM(6, 2, 4, 8)
			bp.SetPPMBase(p, mk())
			return p
		}},
		{name: "phase-conditioned", inner: 1, wrap: func(mk func() bp.Predictor) bp.Predictor {
			return phase.NewConditionedPredictor(16, 4, mk)
		}},
		{name: "cnn-overlay", inner: 1, zeroTarget: true, wrap: func(mk func() bp.Predictor) bp.Predictor {
			return cnn.NewOverlay(cnn.DefaultConfig(), mk())
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var log []trainCall
			made := 0
			w := row.wrap(func() bp.Predictor {
				made++
				return &recorder{log: &log, n: made}
			})
			overrides := 0
			for i := 0; i < 2000; i++ {
				ip := 0x400 + uint64(i%7)*4
				target := 0x1000 + uint64(i)*8
				taken := (i/3)%2 == 0 || i%5 == 0
				pred := w.Predict(ip)
				before := len(log)
				w.Train(ip, target, taken, pred)
				calls := log[before:]
				if len(calls) != row.inner {
					t.Fatalf("step %d: %d inner Train calls, want %d", i, len(calls), row.inner)
				}
				want := target
				if row.zeroTarget {
					want = 0
				}
				for _, c := range calls {
					if c.target != want {
						t.Fatalf("step %d: inner trained with target %#x, want %#x", i, c.target, want)
					}
					if c.pred != c.predicted {
						t.Fatalf("step %d: inner trained with pred %v, its own Predict returned %v", i, c.pred, c.predicted)
					}
					if c.predicted != pred {
						overrides++
					}
				}
			}
			if row.overrides && overrides == 0 {
				t.Fatal("wrapper never overrode an inner prediction; the pred check is vacuous")
			}
		})
	}
}
