package coherence

import "testing"

func TestStateString(t *testing.T) {
	cases := map[State]string{
		Invalid:        "I",
		Shared:         "S",
		Exclusive:      "E",
		Modified:       "M",
		TransientDirty: "TD",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state should still render")
	}
}

func TestStateStable(t *testing.T) {
	for _, s := range []State{Invalid, Shared, Exclusive, Modified} {
		if !s.Stable() {
			t.Errorf("%v should be stable", s)
		}
	}
	if TransientDirty.Stable() {
		t.Error("TD should not be stable")
	}
}

func TestStateDirty(t *testing.T) {
	if !Modified.Dirty() || !TransientDirty.Dirty() {
		t.Error("M and TD are dirty")
	}
	for _, s := range []State{Invalid, Shared, Exclusive} {
		if s.Dirty() {
			t.Errorf("%v should not be dirty", s)
		}
	}
}

func TestStateValid(t *testing.T) {
	if Invalid.Valid() {
		t.Error("Invalid should not be valid")
	}
	for _, s := range []State{Shared, Exclusive, Modified, TransientDirty} {
		if !s.Valid() {
			t.Errorf("%v should be valid", s)
		}
	}
}

func TestTransactionKindString(t *testing.T) {
	cases := map[TransactionKind]string{
		BusRd:     "BusRd",
		BusRdX:    "BusRdX",
		BusUpgr:   "BusUpgr",
		WriteBack: "WriteBack",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("kind %d string %q, want %q", k, k.String(), want)
		}
	}
	if TransactionKind(42).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestTransactionNeedsData(t *testing.T) {
	if !BusRd.NeedsData() || !BusRdX.NeedsData() || !WriteBack.NeedsData() {
		t.Error("data transactions misclassified")
	}
	if BusUpgr.NeedsData() {
		t.Error("BusUpgr is address-only")
	}
}

func TestSnoopResponseMerge(t *testing.T) {
	var r SnoopResponse
	r.Merge(SnoopResponse{Shared: true})
	if !r.Shared || r.Dirty {
		t.Fatalf("merge produced %+v", r)
	}
	r.Merge(SnoopResponse{Dirty: true})
	if !r.Shared || !r.Dirty {
		t.Fatalf("merge produced %+v", r)
	}
	r.Merge(SnoopResponse{})
	if !r.Shared || !r.Dirty {
		t.Fatal("merging an empty response cleared flags")
	}
}
