package checkpoint

import (
	"testing"

	"defined/internal/vtime"
)

func TestStrings(t *testing.T) {
	if FK.String() != "FK" || MI.String() != "MI" {
		t.Fatal("mode strings wrong")
	}
	if TF.String() != "TF" || PF.String() != "PF" || TM.String() != "TM" {
		t.Fatal("timing strings wrong")
	}
	if Mode(9).String() != "mode(9)" || Timing(9).String() != "timing(9)" {
		t.Fatal("unknown strings wrong")
	}
	if Default.String() != "TM/MI" {
		t.Fatalf("default strategy = %s", Default)
	}
}

func TestModelOrdering(t *testing.T) {
	// Figure 7b: per-packet overhead TF > PF > TM > baseline(0).
	tf := ModelFor(Strategy{Timing: TF, Mode: MI})
	pf := ModelFor(Strategy{Timing: PF, Mode: MI})
	tm := ModelFor(Strategy{Timing: TM, Mode: MI})
	if !(tf.PerMessage > pf.PerMessage && pf.PerMessage > tm.PerMessage && tm.PerMessage > 0) {
		t.Fatalf("per-message ordering wrong: TF=%v PF=%v TM=%v",
			tf.PerMessage, pf.PerMessage, tm.PerMessage)
	}
	// Figure 7a: rollback FK >> MI.
	fk := ModelFor(Strategy{Timing: TM, Mode: FK})
	mi := ModelFor(Strategy{Timing: TM, Mode: MI})
	if fk.RollbackFixed < 5*mi.RollbackFixed {
		t.Fatalf("FK rollback (%v) should dwarf MI (%v)", fk.RollbackFixed, mi.RollbackFixed)
	}
	if mi.RollbackFixed <= 0 || mi.RollbackPerReplay <= 0 {
		t.Fatal("MI costs must be positive")
	}
	base := Baseline()
	if base.PerMessage != 0 || base.RollbackFixed != 0 {
		t.Fatal("baseline must be free")
	}
	if mi.RollbackFixed > vtime.Millisecond {
		t.Fatalf("MI median should be ~0.6ms, got %v", mi.RollbackFixed)
	}
}
