package workgen

import "cadinterop/internal/par"

// This file fans workload generation out across workers. Every generator
// in the package is a pure function of its options, so per-index
// generation parallelizes trivially; results come back in index order and
// are byte-identical to a sequential loop (pass par.Workers(1) for the
// serial reference).

// CombModules generates a corpus of n combinational modules; element i is
// always CombModule(name, opt(i)) regardless of worker count.
func CombModules(name string, n int, opt func(i int) HDLOptions, popts ...par.Option) []string {
	out, _ := par.Map(n, func(i int) (string, error) {
		return CombModule(name, opt(i)), nil
	}, popts...)
	return out
}
