package descriptor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// FuzzReadCollection reads mutated collection-file bytes. Read must never
// panic; every rejection is ErrBadMagic, ErrTruncated or ErrBadHeader; and
// a collection it accepts writes back byte-identically to the bytes it
// consumed, the header plus the records the header announces. The seeds
// are a small real collection file and a header whose count its body
// cannot back.
func FuzzReadCollection(f *testing.F) {
	var buf bytes.Buffer
	if err := randCollection(rand.New(rand.NewSource(3)), 4).Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	short := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(short[12:20], 1<<40)
	f.Add(short)
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := Read(bytes.NewReader(raw))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadHeader) {
				t.Fatalf("rejection names no decoder error: %v", err)
			}
			return
		}
		count := binary.LittleEndian.Uint64(raw[12:20])
		if uint64(c.Len()) != count {
			t.Fatalf("accepted %d records, header announces %d", c.Len(), count)
		}
		var out bytes.Buffer
		if err := c.Write(&out); err != nil {
			t.Fatal(err)
		}
		consumed := headerSize + c.Len()*(4+c.Dims()*4)
		if !bytes.Equal(out.Bytes(), raw[:consumed]) {
			t.Fatalf("collection round trip differs:\n in %x\nout %x", raw[:consumed], out.Bytes())
		}
	})
}
