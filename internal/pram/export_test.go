package pram

// StripeCommits reports how many FillStride stripes the machine has
// committed since it was made, for the external tests that pin
// coalescing through real algorithms.
func (m *Machine) StripeCommits() int { return m.bctx.stripes }
