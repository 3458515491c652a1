package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzWireDecode feeds arbitrary bytes to Peek and every decoder. None may
// panic, and whatever a decoder accepts must re-encode to exactly the
// prefix it read: the formats have no slack bits.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range [][]byte{
		MarshalInit(Init{Value: -3.75}),
		MarshalValue(Value{Round: 42, Horizon: 99, Value: math.Pi}),
		MarshalDecided(Decided{Value: 1e-300}),
		MarshalRBC(RBC{Phase: RBCSend, Origin: 513, Round: 7, Value: -0.25}),
		MarshalRBC(RBC{Phase: RBCEcho, Origin: 513, Round: 7, Value: -0.25}),
		MarshalRBC(RBC{Phase: RBCReady, Origin: 513, Round: 7, Value: -0.25}),
		MarshalReport(Report{Round: 12, Senders: []uint16{0, 5, 1000, 65535}}),
		MarshalReport(Report{Round: 1}),
		MarshalWrapped(3, MarshalValue(Value{Round: 1, Value: 2})),
		nil,
		{0},
		{200},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = Peek(b)
		check := func(name string, enc []byte) {
			t.Helper()
			if !bytes.Equal(enc, b[:len(enc)]) {
				t.Fatalf("%s: decoded %x re-encodes to %x", name, b, enc)
			}
		}
		if m, err := UnmarshalInit(b); err == nil {
			check("init", MarshalInit(m))
		}
		if m, err := UnmarshalValue(b); err == nil {
			check("value", MarshalValue(m))
		}
		if m, err := UnmarshalDecided(b); err == nil {
			check("decided", MarshalDecided(m))
		}
		if m, err := UnmarshalRBC(b); err == nil {
			check("rbc", MarshalRBC(m))
		}
		if m, err := UnmarshalReport(b); err == nil {
			check("report", MarshalReport(m))
		}
		if m, err := UnmarshalReportInto(b, make([]uint16, 0, 2)); err == nil {
			check("report-into", MarshalReport(m))
		}
		if dim, inner, err := UnmarshalWrapped(b); err == nil {
			check("wrapped", MarshalWrapped(dim, inner))
		}
	})
}
