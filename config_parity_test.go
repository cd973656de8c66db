package dinar

import (
	"testing"
	"time"

	"repro/internal/service"
)

// TestCLIAndAPIRejectSameConfigs passes one table of invalid server
// configurations both through NewMiddlewareServer (the dinar-server path)
// and through service.JobSpec.Validate (the admin API path): each row must
// be refused by both, so the two front ends cannot drift apart again.
func TestCLIAndAPIRejectSameConfigs(t *testing.T) {
	baseOpts := func() ServerOptions {
		return ServerOptions{
			Addr:   "127.0.0.1:0",
			Config: Config{Dataset: "purchase100", Defense: "none", Clients: 4, Rounds: 1, Seed: 1, Records: 60},
		}
	}
	baseSpec := func() service.JobSpec {
		return service.JobSpec{Name: "parity", Dataset: "purchase100", Defense: "none", Clients: 4, Rounds: 1, Seed: 1, Records: 60}
	}
	rows := []struct {
		name string
		opts func(*ServerOptions)
		spec func(*service.JobSpec)
	}{
		{"negative round deadline",
			func(o *ServerOptions) { o.RoundDeadline = -time.Second },
			func(s *service.JobSpec) { s.RoundDeadlineMs = -1000 }},
		{"quant seed without quantize",
			func(o *ServerOptions) { o.QuantSeed = 5 },
			func(s *service.JobSpec) { s.QuantSeed = 5 }},
		{"topk without quantize",
			func(o *ServerOptions) { o.TopK = 0.5 },
			func(s *service.JobSpec) { s.TopK = 0.5 }},
		{"unknown quantize",
			func(o *ServerOptions) { o.Quantize = "int4" },
			func(s *service.JobSpec) { s.Quantize = "int4" }},
		{"min clients above sample size",
			func(o *ServerOptions) { o.SampleSize, o.MinClients = 2, 3 },
			func(s *service.JobSpec) { s.SampleSize, s.MinClients = 2, 3 }},
		{"negative async staleness",
			func(o *ServerOptions) { o.AsyncStaleness = -1 },
			func(s *service.JobSpec) { s.AsyncStaleness = -1 }},
	}

	// The unmodified base configs are valid on both paths, so every
	// rejection below is the row's doing.
	srv, err := NewMiddlewareServer(baseOpts())
	if err != nil {
		t.Fatalf("base options rejected: %v", err)
	}
	srv.Close()
	spec := baseSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := baseOpts()
			row.opts(&opts)
			if srv, err := NewMiddlewareServer(opts); err == nil {
				srv.Close()
				t.Error("dinar-server path accepted the config")
			}
			spec := baseSpec()
			row.spec(&spec)
			if err := spec.Validate(); err == nil {
				t.Error("admin API path accepted the spec")
			}
		})
	}
}
