package al

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"cadinterop/internal/diag"
)

// TestWalkReusesArena: a walked record lives until its handler returns,
// and the walker hands the arena back at every record boundary. Once the
// first record has grown each chunk to a record's size, every later
// record is carved from the same chunks, so a walk of 10,000 records
// holds the chunks it held after 10, and each record still reads whole.
// An arena that is never released moves on to a new chunk every few
// records instead.
//
// The input arrives a line per Read, so no record straddles the window's
// edge. There a parse that needs more input is retried, and the slots of
// its first attempt can grow a chunk once more.
func TestWalkReusesArena(t *testing.T) {
	const records = 10000
	rec := func(i int) string {
		return fmt.Sprintf(`(rec %d (pin a%d n%d) (pin b%d n%d) "s%d")`, i, i, i, i, i+1, i)
	}
	var src strings.Builder
	src.WriteString("(top t\n")
	for i := 0; i < records; i++ {
		src.WriteString("  " + rec(i) + "\n")
	}
	src.WriteString(")\n")

	type held struct {
		nodes *PosTree
		vals  *Value
		kids  **PosTree
	}
	w := NewWalker(&lineReader{src.String()}, diag.New(diag.Strict, "<walk>", ErrParse))
	chunks := func() held {
		ar := &w.sc.ar
		return held{&ar.nodes.cur[0], &ar.vals.cur[0], &ar.kids.cur[0]}
	}
	var n int
	var after10 held
	err := w.Walk("top", func(open int) error {
		if ok, err := w.Skip(open); !ok {
			return err
		}
		return w.Children(open, nil, func(v Value, pt *PosTree) error {
			if got, want := v.Repr(), rec(n); got != want {
				return fmt.Errorf("record %d reads %s, want %s", n, got, want)
			}
			if len(pt.Kids) != 5 || pt.Kid(1).Kids != nil || len(pt.Kid(2).Kids) != 3 {
				return fmt.Errorf("record %d: bad position tree", n)
			}
			n++
			if n == 10 {
				after10 = chunks()
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Fatalf("walked %d records, want %d", n, records)
	}
	if got := chunks(); got != after10 {
		t.Errorf("after %d records the arena holds other chunks than after 10", records)
	}
}

// lineReader returns one line per Read.
type lineReader struct{ s string }

func (r *lineReader) Read(p []byte) (int, error) {
	if r.s == "" {
		return 0, io.EOF
	}
	end := strings.IndexByte(r.s, '\n') + 1
	if end == 0 {
		end = len(r.s)
	}
	n := copy(p, r.s[:end])
	r.s = r.s[n:]
	return n, nil
}
