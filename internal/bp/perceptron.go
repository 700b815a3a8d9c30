package bp

import "fmt"

// Perceptron is the neural predictor of Jiménez & Lin (HPCA 2001): a table
// of weight vectors over global-history bits. Compared with exact pattern
// matching it damps uncorrelated history positions, the property the paper
// contrasts with PPM in §II.
type Perceptron struct {
	weights  [][]int8 // [entry][histLen+1], index 0 is the bias weight
	ipBits   uint
	histLen  int
	theta    int32
	hist     historyReg
	lastSum  int32
	lastIP   uint64
	haveLast bool
}

// NewPerceptron returns a perceptron predictor with 2^ipBits weight
// vectors over histLen history bits. The training threshold follows the
// published θ = ⌊1.93·h + 14⌋.
func NewPerceptron(ipBits uint, histLen int) *Perceptron {
	if histLen > 64 {
		histLen = 64
	}
	w := make([][]int8, 1<<ipBits)
	for i := range w {
		w[i] = make([]int8, histLen+1)
	}
	return &Perceptron{
		weights: w,
		ipBits:  ipBits,
		histLen: histLen,
		theta:   int32(1.93*float64(histLen)) + 14,
	}
}

func (p *Perceptron) sum(ip uint64) int32 {
	w := p.weights[hashIP(ip, p.ipBits)]
	s := int32(w[0])
	h := p.hist.bits
	for i := 1; i <= p.histLen; i++ {
		if h&1 != 0 {
			s += int32(w[i])
		} else {
			s -= int32(w[i])
		}
		h >>= 1
	}
	return s
}

// Predict implements Predictor.
func (p *Perceptron) Predict(ip uint64) bool {
	p.lastSum = p.sum(ip)
	p.lastIP = ip
	p.haveLast = true
	return p.lastSum >= 0
}

// Train implements Predictor.
func (p *Perceptron) Train(ip, _ uint64, taken, pred bool) {
	s := p.lastSum
	if !p.haveLast || p.lastIP != ip {
		s = p.sum(ip)
	}
	p.haveLast = false
	mag := s
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		w := p.weights[hashIP(ip, p.ipBits)]
		w[0] = ctrUpdate(w[0], taken, -128, 127)
		h := p.hist.bits
		for i := 1; i <= p.histLen; i++ {
			agree := (h&1 != 0) == taken
			w[i] = ctrUpdate(w[i], agree, -128, 127)
			h >>= 1
		}
	}
	p.hist.push(taken)
}

// Name implements Predictor.
func (p *Perceptron) Name() string {
	return fmt.Sprintf("perceptron-%d/%d", p.ipBits, p.histLen)
}
