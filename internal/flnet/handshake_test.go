package flnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/telemetry"
)

// gobHelloFrame builds the Hello a protocol-v2 peer sends: a 4-byte
// big-endian length followed by a gob-encoded message.
func gobHelloFrame(t *testing.T, version int) []byte {
	t.Helper()
	type legacyHello struct {
		Kind, ClientID, Version, LastRound int
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, 4))
	if err := gob.NewEncoder(&buf).Encode(legacyHello{Kind: int(KindHello), Version: version, LastRound: -1}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// TestGobHelloRejected pins what a peer still speaking the gob wire gets:
// a KindError frame and a closed connection, counted as a rejected
// registration, while the server keeps waiting for real clients.
func TestGobHelloRejected(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	bed := newFedBed(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := telemetry.NewRegistry()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   1,
		Rounds:       1,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    10 * time.Second,
		Registry:     reg,
	}, nil)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(gobHelloFrame(t, 2)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("no reply to a gob hello: %v", err)
	}
	if msg.Kind != KindError {
		t.Fatalf("gob hello answered with %v, want an error frame", msg.Kind)
	}
	if _, err := ReadMessage(conn); err == nil {
		t.Fatal("connection still open after the rejection")
	}
	if got := NewMetrics(reg).RegistrationsRejected.Value(); got != 1 {
		t.Fatalf("RegistrationsRejected = %d, want 1", got)
	}
	cancel()
	<-srvOut
}

// TestCanceledRegistrationClosesSessions is the regression test for a
// registration phase that ends without a federation: a canceled ctx with
// 2 of 3 clients registered must close both registered connections, so
// their reads fail at once instead of waiting out their IO timeout.
func TestCanceledRegistrationClosesSessions(t *testing.T) {
	chaos.GuardTest(t, 5*time.Second)
	bed := newFedBed(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := telemetry.NewRegistry()
	srv, _, srvOut := startServer(t, ctx, ServerConfig{
		NumClients:   3,
		Rounds:       1,
		Defense:      bed.defense("none"),
		InitialState: bed.initialState(),
		IOTimeout:    time.Minute,
		Registry:     reg,
	}, nil)

	conns := make([]net.Conn, 2)
	for id := range conns {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := WriteMessage(conn, &Message{Kind: KindHello, ClientID: id, Version: ProtocolVersion, LastRound: -1}); err != nil {
			t.Fatal(err)
		}
		conns[id] = conn
	}
	m := NewMetrics(reg)
	for deadline := time.Now().Add(10 * time.Second); m.LiveClients.Value() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/2 clients registered", m.LiveClients.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	canceled := time.Now()
	for id, conn := range conns {
		conn.SetReadDeadline(canceled.Add(5 * time.Second))
		if _, err := ReadMessage(conn); err == nil {
			t.Fatalf("client %d read a frame after the cancel", id)
		}
		if waited := time.Since(canceled); waited > time.Second {
			t.Fatalf("client %d read failed %s after the cancel, want within 1s", id, waited)
		}
	}
	if out := <-srvOut; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", out.err)
	}
}
