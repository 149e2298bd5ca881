package sim

import "testing"

// benchEngines runs a sub-benchmark against the calendar queue and the
// reference heap, so every `go test -bench` run reports both side by side.
func benchEngines(b *testing.B, run func(b *testing.B, mk func() *Engine)) {
	for _, kind := range queueKinds {
		b.Run(kind.name, func(b *testing.B) { run(b, kind.mk) })
	}
}

// BenchmarkScheduleRun measures the pending-set hot path: schedule and
// drain batches of events, the core cost of every simulation.
func BenchmarkScheduleRun(b *testing.B) {
	benchEngines(b, func(b *testing.B, mk func() *Engine) {
		const batch = 1024
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := mk()
			for j := 0; j < batch; j++ {
				e.Schedule(float64(j%17), func() {})
			}
			e.Run()
		}
		b.ReportMetric(float64(batch), "events/iter")
	})
}

// BenchmarkNestedScheduling measures the common simulation pattern of
// events scheduling follow-up events (task completion chains).
func BenchmarkNestedScheduling(b *testing.B) {
	benchEngines(b, func(b *testing.B, mk func() *Engine) {
		for i := 0; i < b.N; i++ {
			e := mk()
			depth := 0
			var chain func()
			chain = func() {
				depth++
				if depth < 1000 {
					e.Schedule(1, chain)
				}
			}
			e.Schedule(1, chain)
			e.Run()
			depth = 0
		}
	})
}

// BenchmarkCancel measures cancellation overhead, including the threshold
// compaction sweep that a mass cancel triggers.
func BenchmarkCancel(b *testing.B) {
	benchEngines(b, func(b *testing.B, mk func() *Engine) {
		for i := 0; i < b.N; i++ {
			e := mk()
			evs := make([]*Event, 512)
			for j := range evs {
				evs[j] = e.Schedule(float64(j), func() {})
			}
			for _, ev := range evs {
				e.Cancel(ev)
			}
			e.Run()
		}
	})
}

// BenchmarkTickerSteady measures the ticker fast path: many concurrent
// periodic events rescheduling themselves in place, the heartbeat-dominated
// profile of a full cluster run (~hundreds of node heartbeats).
func BenchmarkTickerSteady(b *testing.B) {
	benchEngines(b, func(b *testing.B, mk func() *Engine) {
		const tickers = 256
		b.ReportAllocs()
		e := mk()
		for j := 0; j < tickers; j++ {
			tk := NewTicker(e, 3, func() {})
			tk.Start(float64(j) / tickers)
		}
		e.RunUntil(10) // warm-up: structs allocated, queue geometry settled
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.RunUntil(e.Now() + 3) // one full period: every ticker fires once
		}
		b.ReportMetric(tickers, "events/iter")
	})
}

// BenchmarkMixedWorkload interleaves one-shot events, far-future events,
// and cancels on top of a steady ticker population — the closest synthetic
// to a real cluster run's event mix.
func BenchmarkMixedWorkload(b *testing.B) {
	benchEngines(b, func(b *testing.B, mk func() *Engine) {
		b.ReportAllocs()
		e := mk()
		for j := 0; j < 64; j++ {
			tk := NewTicker(e, 3, func() {})
			tk.Start(float64(j) / 64)
		}
		e.RunUntil(10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 16; j++ {
				e.Defer(float64(j%5)+0.1, func() {})
			}
			ev := e.Schedule(1e4, func() {}) // far-future, lands in overflow
			e.Cancel(ev)
			e.RunUntil(e.Now() + 3)
		}
	})
}
