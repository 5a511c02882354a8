package indexfn

import "testing"

// TestInternerFirstUseOrder: IDs are dense and handed out in first-use
// order, first reports exactly the allocating reference, and the table
// survives rehashing (the hint is far below the vectors interned).
func TestInternerFirstUseOrder(t *testing.T) {
	in := NewInterner(1)
	seen := map[uint64]int32{}
	for i := 0; i < 5000; i++ {
		v := uint64(i*7919%1237) << 20 // repeats, and collides in low bits
		id, first := in.ID(v)
		want, ok := seen[v]
		if !ok {
			want = int32(len(seen))
			seen[v] = want
		}
		if id != want || first == ok {
			t.Fatalf("ref %d: ID(%#x) = %d,%v; want %d,%v", i, v, id, first, want, !ok)
		}
		if got := in.Lookup(v); got != want {
			t.Fatalf("Lookup(%#x) = %d, want %d", v, got, want)
		}
	}
	if in.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(seen))
	}
	if in.Lookup(1) != -1 {
		t.Fatal("Lookup of an absent vector found an ID")
	}
	in.Reset()
	if in.Len() != 0 || in.Lookup(0) != -1 {
		t.Fatal("Reset kept vectors")
	}
	if id, first := in.ID(42 << 20); id != 0 || !first {
		t.Fatalf("first ID after Reset = %d,%v; want 0,true", id, first)
	}
}

func TestIntern(t *testing.T) {
	ids, u := Intern([]uint64{9, 4, 9, 7, 4})
	want := []int32{0, 1, 0, 2, 1}
	if u != 3 || len(ids) != len(want) {
		t.Fatalf("Intern = %v, %d", ids, u)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Intern = %v, want %v", ids, want)
		}
	}
}
