// Fixture for the txonly analyzer: functions with a *prod.Tx parameter
// are rule right-hand sides and must mutate state through the handle.
package txonly

import (
	"repro/internal/prod"
	"repro/internal/rtl"
	"repro/internal/vt"
)

// sharedWM is working memory an action reaches without its Tx, by
// capturing a package-level variable.
var sharedWM *prod.WM

// badAction mutates working memory and host designs behind the journal's
// back in every way the analyzer knows about.
func badAction(tx *prod.Tx, m *prod.Match, eng *prod.Engine, op *vt.Op, reg *rtl.Register) {
	wm := sharedWM
	wm.Make("carrier", prod.Attrs{"kind": "reg"}) // want `\(\*prod\.WM\)\.Make, bypassing the effect journal`
	wm.Modify(m.El(0), prod.Attrs{"bound": true}) // want `\(\*prod\.WM\)\.Modify, bypassing the effect journal`
	wm.Remove(m.El(0))                            // want `\(\*prod\.WM\)\.Remove, bypassing the effect journal`
	sharedWM.Make("carrier", nil)                 // want `\(\*prod\.WM\)\.Make, bypassing the effect journal`
	eng.Halt()                                    // want `\(\*prod\.Engine\)\.Halt directly`
	op.Kind = vt.OpRead                           // want `writes vt field op\.Kind directly.*through tx\.Do`
	op.Args[0] = nil                              // want `writes vt field op\.Args directly.*through tx\.Do`
	op.Carrier.Width = 8                          // want `writes vt field op\.Carrier\.Width directly.*through tx\.Do`
	reg.Width = 16                                // want `writes rtl field reg\.Width directly.*through tx\.Do`
	reg.ID++                                      // want `writes rtl field reg\.ID directly.*through tx\.Do`
}

// nestedClosure: mutations inside closures declared within an action are
// still part of the action.
func nestedClosure(tx *prod.Tx, op *vt.Op) {
	fn := func() {
		sharedWM.Remove(nil) // want `\(\*prod\.WM\)\.Remove, bypassing the effect journal`
		op.Seq = 3           // want `writes vt field op\.Seq directly`
	}
	fn()
}

// goodAction uses only the sanctioned surface.
func goodAction(tx *prod.Tx, m *prod.Match) {
	el := tx.Make("value", prod.Attrs{"width": 8})
	tx.Modify(el, prod.Attrs{"bound": true})
	tx.Remove(m.El(0))
	tx.Halt()
	if _, err := tx.Do("bind-carrier-reg", m.El(0)); err != nil {
		panic(err)
	}
	_ = sharedWM.Size() // reads are fine
}

// allowedAction demonstrates the sanctioned escape hatch.
func allowedAction(tx *prod.Tx, op *vt.Op) {
	//daalint:allow txonly replay harness rebuilds the op in place
	op.Seq = 0
	_ = tx
}

// notAnAction has no Tx parameter: free code may drive the WM directly
// (that is how the engine host and tests seed working memory).
func notAnAction(wm *prod.WM, op *vt.Op) {
	wm.Make("goal", prod.Attrs{"phase": "trace"})
	op.Kind = vt.OpWrite
}
