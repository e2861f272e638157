package controller

import (
	"testing"

	"iadm/internal/topology"
)

func BenchmarkRouteTagAfterMapChange(b *testing.B) {
	c, err := New(64)
	if err != nil {
		b.Fatal(err)
	}
	l := topology.Link{Stage: 0, From: 0, Kind: topology.Plus}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate fault/repair so every iteration routes against a new map.
		if i%2 == 0 {
			c.ReportFault(l)
		} else {
			c.ReportRepair(l)
		}
		if _, err := c.RouteTag(1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentRouteTag(b *testing.B) {
	c, err := New(64)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := c.RouteTag(i%64, (i*7)%64); err != nil {
				b.Fatal(err)
			}
		}
	})
}
