package cnn

import (
	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// Overlay deploys trained helper models alongside a baseline predictor,
// the paper's §V deployment model: TAGE-SC-L stays in place for the vast
// majority of branches; offline-trained helpers take over prediction for
// the specific H2P IPs they were trained on.
type Overlay struct {
	Base    bp.Predictor
	cfg     Config
	helpers map[uint64]*Model

	hist     []uint16
	lastBase bool
	lastIP   uint64
	haveLast bool

	// HelperPredictions counts predictions served by helpers.
	HelperPredictions uint64
}

// NewOverlay wraps base with an (initially empty) helper table.
func NewOverlay(cfg Config, base bp.Predictor) *Overlay {
	return &Overlay{Base: base, cfg: cfg, helpers: make(map[uint64]*Model)}
}

// Attach installs a trained helper for the branch at ip.
func (o *Overlay) Attach(ip uint64, m *Model) { o.helpers[ip] = m }

// Predict implements bp.Predictor.
func (o *Overlay) Predict(ip uint64) bool {
	o.lastBase = o.Base.Predict(ip)
	o.lastIP = ip
	o.haveLast = true
	if m, ok := o.helpers[ip]; ok && len(o.hist) >= o.cfg.HistLen {
		o.HelperPredictions++
		return m.Predict(o.hist[len(o.hist)-o.cfg.HistLen:])
	}
	return o.lastBase
}

// Train implements bp.Predictor. The base predictor is always trained
// with its own prediction so its internal state matches a solo
// deployment; helpers are frozen (offline-trained).
func (o *Overlay) Train(ip, _ uint64, taken, _ bool) {
	basePred := o.lastBase
	if !o.haveLast || o.lastIP != ip {
		basePred = o.Base.Predict(ip)
	}
	o.haveLast = false
	// The base gets target 0, so its IMLI component never counts: the
	// cnn artifact and perfbench's reference digests were recorded that
	// way. Passing the target here, with a digest regeneration, is
	// ROADMAP item 1 fix 2.
	o.Base.Train(ip, 0, taken, basePred)
	o.push(Encode(o.cfg, ip, taken))
}

// ObserveBranch implements bp.BranchObserver.
func (o *Overlay) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	bp.Observe(o.Base, ip, target, kind, taken)
}

// Name implements bp.Predictor.
func (o *Overlay) Name() string { return "cnn-overlay(" + o.Base.Name() + ")" }

func (o *Overlay) push(slot uint16) {
	o.hist = append(o.hist, slot)
	if len(o.hist) > 4*o.cfg.HistLen {
		o.hist = o.hist[len(o.hist)-o.cfg.HistLen:]
	}
}
