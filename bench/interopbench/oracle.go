package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cadinterop/internal/serve"
)

// reference computes the expected response to a request. The benchmark's
// is a cold, uncached, in-process call of the serve entry point.
type reference func(request) serve.Response

func coldReference(r request) serve.Response {
	resp, _ := call(context.Background(), r, nil)
	return resp
}

// verify compares every kept daemon response, output and exit status
// byte for byte, against ref, computing each distinct request's reference
// once on up to workers goroutines. It returns one error per mismatch.
func verify(keptResp map[int]kept, ref reference, workers int) []error {
	byKey := map[string]request{}
	for _, k := range keptResp {
		byKey[k.req.key()] = k.req
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	want := make(map[string]serve.Response, len(keys))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	work := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range work {
				resp := ref(byKey[key])
				mu.Lock()
				want[key] = resp
				mu.Unlock()
			}
		}()
	}
	for _, key := range keys {
		work <- key
	}
	close(work)
	wg.Wait()

	idx := make([]int, 0, len(keptResp))
	for i := range keptResp {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var errs []error
	for _, i := range idx {
		k := keptResp[i]
		w := want[k.req.key()]
		switch {
		case k.resp.Exit != w.Exit:
			errs = append(errs, fmt.Errorf("request %d (%s): exit %d, reference %d", i, k.req.endpoint(), k.resp.Exit, w.Exit))
		case k.resp.Output != w.Output:
			errs = append(errs, fmt.Errorf("request %d (%s): output differs from reference at byte %d", i, k.req.endpoint(), firstDiff(k.resp.Output, w.Output)))
		}
	}
	return errs
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
