package bp

// SetPPMBase replaces p's base predictor, so a test can record the
// calls the base receives.
func SetPPMBase(p *PPM, base Predictor) { p.base = base }
