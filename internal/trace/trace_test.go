package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// tinyTrace builds a small well-formed trace:
// day 0: nodes 0,1 and edge 0-1; day 1: node 2, edges 1-2; day 3: edge 0-2.
func tinyTrace() []Event {
	return []Event{
		{Kind: AddNode, Day: 0, U: 0, Origin: OriginXiaonei},
		{Kind: AddNode, Day: 0, U: 1, Origin: OriginXiaonei},
		{Kind: AddEdge, Day: 0, U: 0, V: 1},
		{Kind: AddNode, Day: 1, U: 2, Origin: OriginFiveQ},
		{Kind: AddEdge, Day: 1, U: 1, V: 2},
		{Kind: AddEdge, Day: 3, U: 0, V: 2},
	}
}

func TestValidateOK(t *testing.T) {
	if err := Validate(tinyTrace()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesNonMonotone(t *testing.T) {
	evs := tinyTrace()
	evs[3].Day = 0 // node 2 fine...
	evs[4].Day = 0
	evs[5].Day = 1 // ...but then day 1 after day 3? reorder to break monotone:
	evs = append(evs, Event{Kind: AddEdge, Day: 0, U: 0, V: 1})
	err := Validate(evs)
	if !errors.Is(err, ErrNonMonotoneDay) && !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("err = %v", err)
	}
	// Direct regression:
	bad := []Event{
		{Kind: AddNode, Day: 5, U: 0},
		{Kind: AddNode, Day: 4, U: 1},
	}
	if err := Validate(bad); !errors.Is(err, ErrNonMonotoneDay) {
		t.Fatalf("err = %v, want ErrNonMonotoneDay", err)
	}
}

func TestValidateCatchesUnknownNode(t *testing.T) {
	bad := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddEdge, Day: 0, U: 0, V: 5},
	}
	if err := Validate(bad); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestValidateCatchesDuplicateNode(t *testing.T) {
	bad := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddNode, Day: 0, U: 0},
	}
	if err := Validate(bad); !errors.Is(err, ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
}

func TestValidateCatchesNonDense(t *testing.T) {
	bad := []Event{{Kind: AddNode, Day: 0, U: 3}}
	if err := Validate(bad); !errors.Is(err, ErrNonDenseNode) {
		t.Fatalf("err = %v, want ErrNonDenseNode", err)
	}
}

func TestValidateCatchesSelfLoopAndDup(t *testing.T) {
	bad := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddEdge, Day: 0, U: 0, V: 0},
	}
	if err := Validate(bad); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
	dup := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddNode, Day: 0, U: 1},
		{Kind: AddEdge, Day: 0, U: 0, V: 1},
		{Kind: AddEdge, Day: 1, U: 1, V: 0},
	}
	if err := Validate(dup); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("err = %v, want ErrDuplicateEdge", err)
	}
}

func TestValidateUnknownKind(t *testing.T) {
	bad := []Event{{Kind: Kind(9), Day: 0}}
	if err := Validate(bad); err == nil {
		t.Fatal("want error for unknown kind")
	}
}

// writeTraceFile encodes events into a fresh trace file and returns its
// path.
func writeTraceFile(t *testing.T, events []Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "v.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := enc.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestValidateSourceFile validates an on-disk trace straight off disk —
// the event slice is never materialized — and catches invariant
// violations the same way the in-memory path does.
func TestValidateSourceFile(t *testing.T) {
	fs, err := openFileSource(writeTraceFile(t, tinyTrace()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSource(fs); err != nil {
		t.Fatal(err)
	}

	// The codec enforces day monotonicity at encode time, so smuggle a
	// structural violation it cannot see: an edge between unknown nodes.
	bad := []Event{
		{Kind: AddNode, Day: 0, U: 0},
		{Kind: AddEdge, Day: 0, U: 0, V: 7},
	}
	fs, err = openFileSource(writeTraceFile(t, bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSource(fs); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestSummarize(t *testing.T) {
	m := Summarize(tinyTrace())
	if m.Days != 4 {
		t.Fatalf("Days = %d, want 4", m.Days)
	}
	if m.Nodes != 3 || m.Edges != 3 {
		t.Fatalf("nodes=%d edges=%d", m.Nodes, m.Edges)
	}
	if m.Xiaonei != 2 || m.FiveQ != 1 || m.NewUsers != 0 {
		t.Fatalf("origin counts: %+v", m)
	}
	if m.MergeDay != -1 {
		t.Fatalf("MergeDay = %d", m.MergeDay)
	}
}

func TestOriginString(t *testing.T) {
	if OriginXiaonei.String() != "xiaonei" || OriginFiveQ.String() != "5q" || OriginNew.String() != "new" {
		t.Fatal("origin names wrong")
	}
	if Origin(9).String() == "" {
		t.Fatal("unknown origin must still print")
	}
}
