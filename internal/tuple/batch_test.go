package tuple

import "testing"

func TestBatchAppendReset(t *testing.T) {
	var b Batch
	for i := 0; i < 5; i++ {
		tt := Tuple{}
		tt.SetInt(Unique1, int32(i))
		b.Append(&tt, uint64(i*7))
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d, want 5", b.Len())
	}
	for i := 0; i < 5; i++ {
		if got := b.Tuples[i].Int(Unique1); got != int32(i) {
			t.Errorf("tuple %d: unique1 = %d", i, got)
		}
		if b.Hashes[i] != uint64(i*7) {
			t.Errorf("hash %d = %d, want %d", i, b.Hashes[i], i*7)
		}
	}
	b.Reset()
	if b.Len() != 0 || len(b.Hashes) != 0 {
		t.Fatalf("Reset left %d tuples / %d hashes", b.Len(), len(b.Hashes))
	}
}
