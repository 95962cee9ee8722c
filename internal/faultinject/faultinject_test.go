package faultinject

import (
	"errors"
	"testing"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Disarm()
	if Enabled() {
		t.Fatal("Enabled() true with no plan armed")
	}
	if err := Hit("anything"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

func TestErrorSchedule(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Specs: []Spec{{Point: "p", Kind: KindError, After: 2, Times: 2, Msg: "boom"}}}); err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Enabled() false after Arm")
	}
	// Hits 1,2 skipped (After=2); hits 3,4 trigger (Times=2); everything
	// later is exhausted.
	var fired []int
	for i := 1; i <= 8; i++ {
		if err := Hit("p"); err != nil {
			fired = append(fired, i)
			var ie *Error
			if !errors.As(err, &ie) || ie.Point != "p" || ie.Msg != "boom" {
				t.Fatalf("hit %d: unexpected error %v", i, err)
			}
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error %v does not wrap ErrInjected", i, err)
			}
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired at hits %v, want [3 4]", fired)
	}
	if got := Hits("p"); got != 8 {
		t.Fatalf("Hits = %d, want 8", got)
	}
}

func TestPanicKind(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Specs: []Spec{{Point: "p", Kind: KindPanic, Msg: "kaboom"}}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Hit did not panic")
		}
		ie, ok := v.(*Error)
		if !ok || ie.Msg != "kaboom" {
			t.Fatalf("panic value %v, want *Error{kaboom}", v)
		}
	}()
	Hit("p")
}

func TestTransientFlag(t *testing.T) {
	defer Disarm()
	for _, transient := range []bool{false, true} {
		if err := Arm(Plan{Specs: []Spec{{Point: "p", Kind: KindError, Transient: transient}}}); err != nil {
			t.Fatal(err)
		}
		err := Hit("p")
		var tr interface{ Transient() bool }
		if !errors.As(err, &tr) || tr.Transient() != transient {
			t.Fatalf("Transient %v: injected error %v not classified to match", transient, err)
		}
	}
}

func TestArmRejectsBadSpecs(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Specs: []Spec{{Point: ""}}}); err == nil {
		t.Fatal("empty point accepted")
	}
}

func TestUnarmedPointPassesThrough(t *testing.T) {
	defer Disarm()
	if err := Arm(Plan{Specs: []Spec{{Point: "p", Kind: KindError}}}); err != nil {
		t.Fatal(err)
	}
	if err := Hit("other"); err != nil {
		t.Fatalf("unarmed point injected %v", err)
	}
}
