package main

import (
	"os"
	"time"

	"repro/internal/flnet"
	"repro/internal/telemetry"
)

// serverLayerNames are the per-layer metrics a networked workload's
// iterations measure at the server (serverFigures), plus the two the
// workload supplies itself: fl.updates_offered and flnet.reconnects.
var serverLayerNames = []string{
	"fl.updates_offered", "fl.updates_folded", "fl.screen_ms", "flnet.broadcast_ms",
	"flnet.bytes_up_per_update", "flnet.bytes_down_per_client_round", "flnet.compression_ratio",
	"flnet.read_blocked_ms", "flnet.write_blocked_ms", "flnet.evictions", "flnet.reconnects",
	"checkpoint.bytes_per_gen", "checkpoint.tail_ms", "checkpoint.stall_ms",
}

// serverFigures fills an iteration's round, update and wire counts and its
// server-side layer figures from a finished flnet.Server: its round
// reports, the byte-counting listener, the registry it was given, and its
// checkpoint chain directory. dim is the model state length. It returns
// the number of rounds the server reported as failed.
func serverFigures(out *iteration, srv *flnet.Server, wire *wireCounters, reg *telemetry.Registry,
	ckptDir string, clients, dim int, s *seams) (failed int) {
	reports := srv.Reports()
	var screenMs, bcastMs []float64
	for _, r := range reports {
		out.updates += len(r.Participants)
		if r.Err != nil {
			failed++
		}
		screenMs = append(screenMs, float64(r.Timing.Screen)/float64(time.Millisecond))
		bcastMs = append(bcastMs, float64(r.Timing.Broadcast)/float64(time.Millisecond))
	}
	out.rounds = len(reports)
	rx, tx := wire.rx.Load(), wire.tx.Load()
	out.wireBytes = rx + tx
	updates, broadcasts := float64(out.updates), float64(clients*len(reports))
	m := flnet.NewMetrics(reg)
	out.layer = map[string]float64{
		"fl.updates_folded":                 float64(s.folded.Swap(0)),
		"fl.screen_ms":                      mean(screenMs),
		"flnet.broadcast_ms":                mean(bcastMs),
		"flnet.bytes_up_per_update":         ratio(float64(rx), updates),
		"flnet.bytes_down_per_client_round": ratio(float64(tx), broadcasts),
		"flnet.compression_ratio":           ratio(8*float64(dim)*(updates+broadcasts), float64(rx+tx)),
		"flnet.read_blocked_ms":             ratio(float64(wire.readNs.Load())/1e6, float64(len(reports))),
		"flnet.write_blocked_ms":            ratio(float64(wire.writeNs.Load())/1e6, float64(len(reports))),
		"flnet.evictions":                   float64(m.ClientsEvicted.Value()),
		"checkpoint.bytes_per_gen":          chainBytesPerGen(ckptDir),
		"checkpoint.tail_ms":                histMeanMs(m.RoundTailSeconds),
		"checkpoint.stall_ms":               histMeanMs(m.PipelineStallSeconds),
	}
	return failed
}

// serverLayers averages the server-side layer figures over a traced pass.
func serverLayers(lm layerMetrics, its []iteration) {
	meanLayers(lm, its, serverLayerNames...)
	lm["fl.folded_frac"] = ratio(lm["fl.updates_folded"], lm["fl.updates_offered"])
}

// histMeanMs is a histogram's mean observation in milliseconds.
func histMeanMs(h *telemetry.Histogram) float64 {
	return ratio(h.Sum()*1000, float64(h.Count()))
}

// chainBytesPerGen is the mean size of the files in a checkpoint chain
// directory (the head plus its retained generations).
func chainBytesPerGen(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total, files float64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !info.Mode().IsRegular() {
			continue
		}
		total += float64(info.Size())
		files++
	}
	return ratio(total, files)
}
