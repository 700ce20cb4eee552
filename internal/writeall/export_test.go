package writeall

import "repro/internal/pram"

// DecideByScan decides by visiting every processor, the definition the
// parked-processor index must agree with. Call it after Decide on the
// same view (Decide advances the traversal watermark); it reuses the
// decision buffers Decide returned.
func (a *PostOrder) DecideByScan(v *pram.View) pram.Decision {
	return a.scan(v, int(v.Mem.Load(a.lay.W(0))))
}
