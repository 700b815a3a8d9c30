package cliutil_test

import (
	"testing"
	"time"

	"branchlab/internal/cliutil"
)

// FuzzValidateFlags checks Validate against an independent restatement
// of its acceptance rules: for every flag combination the two must
// agree on accept/reject, and Validate must never panic. The seed
// corpus covers each rule's boundary from both sides.
func FuzzValidateFlags(f *testing.F) {
	seed := func(budget, slice uint64, parallel int, cache, cacheSet, storeSet bool, storeCap int64, storeCapSet bool, deadlineNs int64, deadlineSet bool) {
		f.Add(budget, slice, parallel, cache, cacheSet, storeSet, storeCap, storeCapSet, deadlineNs, deadlineSet)
	}
	seed(30_000_000, 1_000_000, 0, false, false, false, 0, false, 0, false)         // defaults, valid
	seed(0, 1_000_000, 0, false, false, false, 0, false, 0, false)                  // zero budget
	seed(30_000_000, 0, 0, false, false, false, 0, false, 0, false)                 // zero slice
	seed(1, 1, -1, false, false, false, 0, false, 0, false)                         // negative parallel
	seed(1, 1, 1, false, false, false, 0, false, 0, false)                          // sequential, valid
	seed(1, 1, 8, true, false, false, 0, false, 0, false)                           // parallel with cache, valid
	seed(1, 1, 0, true, false, false, 0, false, 0, false)                           // cache on, geometry defaulted, valid
	seed(0, 0, -1, false, true, true, -1, true, 0, true)                            // every rule broken at once
	seed(^uint64(0), ^uint64(0), 1<<30, true, true, true, 1<<40, true, 1<<62, true) // extremes, valid
	seed(1, 1, 0, false, true, false, 0, false, 0, false)                           // cacheslice without cache
	seed(1, 1, 0, true, true, false, 0, false, 0, false)                            // cacheslice with cache, valid
	seed(1, 1, 0, true, true, true, 0, false, 0, false)                             // cache geometry and store with cache, valid
	seed(1, 1, 0, false, false, true, 0, false, 0, false)                           // tracestore without cache
	seed(1, 1, 0, true, false, true, 0, false, 0, false)                            // tracestore with cache, valid
	seed(1, 1, 0, true, false, false, 256, true, 0, false)                          // storecap without tracestore
	seed(1, 1, 0, true, false, true, -1, true, 0, false)                            // negative storecap
	seed(1, 1, 0, true, false, true, 0, true, 0, false)                             // zero storecap (unbounded), valid
	seed(1, 1, 0, true, false, true, 256, true, 0, false)                           // bounded storecap, valid
	seed(1, 1, 0, false, false, false, -7, false, 0, false)                         // unset storecap ignores value
	seed(1, 1, 0, false, false, false, 0, false, 0, true)                           // zero deadline, set
	seed(1, 1, 0, false, false, false, 0, false, -1, true)                          // negative deadline, set
	seed(1, 1, 0, false, false, false, 0, false, 1_000_000_000, true)               // positive deadline, valid
	seed(1, 1, 0, false, false, false, 0, false, -5, false)                         // unset deadline ignores value

	f.Fuzz(func(t *testing.T, budget, slice uint64, parallel int, cache, cacheSet, storeSet bool, storeCap int64, storeCapSet bool, deadlineNs int64, deadlineSet bool) {
		fl := cliutil.RunFlags{
			Budget:        budget,
			SliceLen:      slice,
			Parallel:      parallel,
			CacheEnabled:  cache,
			CacheSliceSet: cacheSet,
			StoreSet:      storeSet,
			StoreCap:      storeCap,
			StoreCapSet:   storeCapSet,
			Deadline:      time.Duration(deadlineNs),
			DeadlineSet:   deadlineSet,
		}
		err := fl.Validate()

		wantOK := budget > 0 &&
			slice > 0 &&
			parallel >= 0 &&
			(cache || !cacheSet) &&
			(cache || !storeSet) &&
			(storeSet || !storeCapSet) &&
			(!storeCapSet || storeCap >= 0) &&
			(!deadlineSet || deadlineNs > 0)
		if gotOK := err == nil; gotOK != wantOK {
			t.Errorf("Validate(%+v) = %v, independent oracle says ok=%v", fl, err, wantOK)
		}
		if err != nil && err.Error() == "" {
			t.Errorf("Validate(%+v) returned an error with no message", fl)
		}
	})
}
