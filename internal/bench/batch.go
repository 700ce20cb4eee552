package bench

import (
	"sync"
	"sync/atomic"
)

// Points evaluates fn(0..n-1) and returns the results in index order,
// running up to s.Parallel points concurrently. Each point must be
// independent: experiments satisfy this by constructing fresh algorithm
// and adversary instances inside fn, because adversaries and ACC carry
// run state in their values. Table assembly stays with the caller,
// on one goroutine, so rendered output is identical at any parallelism.
// If a point panics, Points re-panics after the remaining points drain.
func Points[T any](s Sweep, n int, fn func(i int) T) []T {
	out := make([]T, n)
	workers := min(s.Parallel, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	firstPanic := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							select {
							case firstPanic <- r:
							default:
							}
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	select {
	case r := <-firstPanic:
		panic(r)
	default:
	}
	return out
}
