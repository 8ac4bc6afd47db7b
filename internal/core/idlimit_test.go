package core

import (
	"errors"
	"testing"

	"gaussrange/internal/vecmat"
)

// TestStageIDLimit: Stage refuses ids at or above IDLimit, sequential ones
// counted from MaxID and explicit ones, with ErrIDLimit before it changes
// anything, and releases the writer mutex.
func TestStageIDLimit(t *testing.T) {
	ix, err := NewDynamicIndex(2)
	if err != nil {
		t.Fatal(err)
	}
	cur := ix.Current()
	full := *cur
	full.maxID = IDLimit
	ix.cur.Store(&full)
	if _, err := ix.Stage([]vecmat.Vector{{1, 2}}, nil, nil); !errors.Is(err, ErrIDLimit) {
		t.Fatalf("sequential insert at MaxID %d: got %v, want ErrIDLimit", IDLimit, err)
	}
	ix.cur.Store(cur)
	if _, err := ix.Stage([]vecmat.Vector{{1, 2}}, []int64{IDLimit}, nil); !errors.Is(err, ErrIDLimit) {
		t.Fatalf("explicit id %d: got %v, want ErrIDLimit", IDLimit, err)
	}
	st, err := ix.Stage([]vecmat.Vector{{1, 2}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Publish()
	if ix.Current().MaxID() != 1 {
		t.Fatalf("MaxID %d after one insert, want 1", ix.Current().MaxID())
	}
}
