package mapreduce

import (
	"testing"

	"dare/internal/snapshot"
)

// TestHeartbeatStateModeByte pins the heartbeat section's layout: the
// encoder leads with a true mode byte (the cohort layout images have
// always used), and the decoder rejects a false one — the per-node-ticker
// layout, which no longer has a driver to restore into.
func TestHeartbeatStateModeByte(t *testing.T) {
	c, err := NewCluster(testProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d := newHeartbeatDriver(c, c.Profile.HeartbeatInterval, func(*Node) {})
	enc := snapshot.NewEnc()
	d.encodeState(enc)
	if !snapshot.NewDec(enc.Data()).Bool() {
		t.Fatal("heartbeat section does not lead with a true mode byte")
	}
	c.Eng.BeginRestore(c.Eng.Now(), c.Eng.Seq(), c.Eng.Processed())
	if err := d.decodeState(snapshot.NewDec(enc.Data())); err != nil {
		t.Fatalf("own image rejected: %v", err)
	}
	c.Eng.FinishRestore()

	perNode := snapshot.NewEnc()
	perNode.Bool(false)
	perNode.U32(uint32(len(c.Nodes)))
	if err := d.decodeState(snapshot.NewDec(perNode.Data())); err == nil {
		t.Fatal("per-node-ticker heartbeat image accepted")
	}
}
