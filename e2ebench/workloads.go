package main

import (
	"fmt"
	"strings"
)

// workloads lists every workload by name, in the order BENCHMARK.json
// declares them.
var workloads = []struct {
	name string
	make func(seed int64) workload
}{
	{"fig4_purchase100", func(seed int64) workload { return newFig4(seed) }},
	{"dinar_tcp_celeba", func(seed int64) workload { return newTCP(seed) }},
	{"fleet_fold", func(seed int64) workload { return newFleet(seed) }},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func newWorkload(name string, seed int64) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}
