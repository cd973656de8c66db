package flnet

import (
	"context"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// plainProxy forwards connections to addr with the Hello's capability bits
// cleared, so a client dialing it runs a plain-binary session whatever it
// advertises and whatever the server offers.
func plainProxy(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer client.Close()
				server, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer server.Close()
				_, hello, err := ReadHello(client)
				if err != nil {
					return
				}
				hello.WireCaps = 0
				if err := WriteMessage(server, hello); err != nil {
					return
				}
				go func() {
					io.Copy(client, server) //nolint:errcheck // ends when either side closes
					client.Close()
				}()
				io.Copy(server, client) //nolint:errcheck
			}()
		}
	}()
	return ln.Addr().String()
}

// runFedWithWire runs one complete federation on the shared fedBed fixtures
// with the given server codec config, returning the final global state.
// Clients marked in plain dial through plainProxy; the rest advertise the
// full codec set.
func runFedWithWire(t *testing.T, bed *fedBed, rounds int, mutate func(*ServerConfig), plain map[int]bool) []float64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ServerConfig{
		NumClients:   bed.numClients,
		Rounds:       rounds,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    30 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, _, srvOut := startServer(t, ctx, cfg, nil)

	var wg sync.WaitGroup
	errCh := make(chan error, bed.numClients)
	for id := 0; id < bed.numClients; id++ {
		wg.Add(1)
		addr := srv.Addr().String()
		if plain[id] {
			addr = plainProxy(t, addr)
		}
		go func(id int) {
			defer wg.Done()
			_, err := RunClient(ctx, ClientConfig{
				Addr:    addr,
				Trainer: bed.trainer(id),
				Defense: bed.defense("none"),
			})
			if err != nil {
				errCh <- err
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	out := <-srvOut
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.state
}

// relL2 is ‖a−b‖ / ‖b‖.
func relL2(a, b []float64) float64 {
	var diff, norm float64
	for i := range a {
		d := a[i] - b[i]
		diff += d * d
		norm += b[i] * b[i]
	}
	return math.Sqrt(diff) / math.Sqrt(norm)
}

// TestQuantizedFederationConverges is the lossy-codec tolerance acceptance:
// the same seeded federation run over int8-quantized, delta-encoded,
// compressed frames must land within a small relative distance of the
// lossless run's final global model — quantization noise perturbs, it must
// not derail.
func TestQuantizedFederationConverges(t *testing.T) {
	const rounds = 3
	bed := newFedBed(t, 2)
	// The baseline server offers no codecs: every session is plain binary.
	baseline := runFedWithWire(t, bed, rounds, nil, nil)
	if len(baseline) == 0 {
		t.Fatal("baseline federation produced no state")
	}

	quantized := runFedWithWire(t, bed, rounds, func(cfg *ServerConfig) {
		cfg.Compress = true
		cfg.Quantize = "int8"
		cfg.Delta = true
		cfg.QuantSeed = 5
	}, nil)
	if len(quantized) != len(baseline) {
		t.Fatalf("quantized run produced %d values, baseline %d", len(quantized), len(baseline))
	}
	for i, v := range quantized {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("quantized state[%d] is %v", i, v)
		}
	}
	rel := relL2(quantized, baseline)
	t.Logf("relative L2 distance to lossless run: %.4f", rel)
	if rel > 0.05 {
		t.Fatalf("quantized federation drifted %.4f relative L2 from baseline; tolerance is 0.05", rel)
	}

	// A lossless coded run (flate + XOR delta broadcasts, no quantization)
	// must match the plain-binary baseline exactly: the lossless codecs
	// change no bits.
	lossless := runFedWithWire(t, bed, rounds, func(cfg *ServerConfig) {
		cfg.Compress = true
		cfg.Delta = true
	}, nil)
	for i := range baseline {
		if lossless[i] != baseline[i] {
			t.Fatalf("lossless coded state[%d] = %x, plain baseline %x; lossless codecs must be bit-transparent",
				i, math.Float64bits(lossless[i]), math.Float64bits(baseline[i]))
		}
	}
}

// TestMixedWireFederation pins a heterogeneous cohort: one client on plain
// binary frames and one speaking the full codec stack complete the same
// quantized federation side by side.
func TestMixedWireFederation(t *testing.T) {
	bed := newFedBed(t, 2)
	state := runFedWithWire(t, bed, 2, func(cfg *ServerConfig) {
		cfg.Compress = true
		cfg.Quantize = "int8"
		cfg.Delta = true
		cfg.QuantSeed = 7
	}, map[int]bool{0: true})
	if len(state) == 0 {
		t.Fatal("mixed federation produced no state")
	}
	for i, v := range state {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("state[%d] is %v", i, v)
		}
	}
}
