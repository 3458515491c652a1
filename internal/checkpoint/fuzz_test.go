package checkpoint

import "testing"

// FuzzCheckpointOpen opens arbitrary bytes as a snapshot, and the same
// bytes sealed as a snapshot payload, then reads fields in the order ops
// names. Nothing may panic, a sealed payload must always open, and a read
// error, once latched, must stay latched.
func FuzzCheckpointOpen(f *testing.F) {
	sample := buildSample()
	f.Add(sample, []byte{0, 1, 2, 3, 4 + 6*3, 5})
	f.Add(sample[:len(sample)-1], []byte{0})
	f.Add(sample[headerLen:len(sample)-trailerLen], []byte{0, 1, 2, 3, 4 + 6*3, 5})
	f.Add(Seal(Begin(nil)), []byte{5})
	f.Add([]byte("AACP\x02\x00\x00\x00\x00\x00"), []byte{2})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		if d, err := Open(data); err == nil {
			readFields(t, &d, ops)
		}
		d, err := Open(Seal(append(Begin(nil), data...)))
		if err != nil {
			t.Fatalf("sealed payload does not open: %v", err)
		}
		readFields(t, &d, ops)
	})
}

// readFields drives d with one read per op byte: op%6 picks the read, and
// a Words read takes a destination of (op/6)%4 words.
func readFields(t *testing.T, d *Dec, ops []byte) {
	t.Helper()
	for _, op := range ops {
		failed := d.Err() != nil
		switch op % 6 {
		case 0:
			d.Uvarint()
		case 1:
			d.Int()
		case 2:
			d.Bool()
		case 3:
			d.F64()
		case 4:
			d.Words(make([]uint64, int(op/6)%4))
		case 5:
			_ = d.Done()
		}
		if failed && d.Err() == nil {
			t.Fatal("decode error was cleared by a later read")
		}
	}
}
