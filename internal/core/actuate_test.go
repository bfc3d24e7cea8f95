package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"megadc/internal/ctrlplane"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

// TestOneActuationPath pins the manager files to the single actuation
// path: the twelve decision sites each call actuate exactly once, and no
// manager code allocates causes, schedules timers, calls the bus, or
// picks between the serialized and direct pipelines by hand. In-flight
// claims belong to actuate's claim table: no manager struct keeps a map
// field of its own (podSnap, a control-plane snapshot, excepted), and no
// Action's Dispatch deletes from one.
func TestOneActuationPath(t *testing.T) {
	forbidden := map[string]bool{
		"decide": true, "WithCause": true, "After": true, "At": true, "Every": true,
		"Call": true, "Cast": true,
		"Submit": true, "Serialized": true, "Do": true,
	}
	actuations := 0
	fset := token.NewFileSet()
	for _, name := range []string{"globalmanager.go", "podmanager.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if _, isMap := field.Type.(*ast.MapType); isMap && (len(field.Names) != 1 || field.Names[0].Name != "podSnap") {
						t.Errorf("%s: manager struct declares a map field; hold in-flight state as an Action Claim", fset.Position(field.Pos()))
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Dispatch" && callsDelete(n.Value) {
					t.Errorf("%s: Dispatch deletes an in-flight marker; state it as the Action's Claim", fset.Position(n.Pos()))
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch m := sel.Sel.Name; {
				case m == "actuate":
					actuations++
				case forbidden[m]:
					t.Errorf("%s: manager calls %s directly; route it through actuate", fset.Position(n.Pos()), m)
				}
			}
			return true
		})
	}
	if actuations != 12 {
		t.Errorf("manager files contain %d actuate calls, want the 12 decision sites", actuations)
	}
}

// callsDelete reports whether the builtin delete is called anywhere in n.
func callsDelete(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				found = true
			}
		}
		return !found
	})
	return found
}

// TestActuateTiming checks the dispatch rules: a delayed action records
// its decision at once and applies after Delay, Dispatch runs outside the
// decision's cause and Apply inside it, and an inline action applies
// within the deciding call.
func TestActuateTiming(t *testing.T) {
	cfg := testConfig()
	cfg.Trace = trace.NewRecorder(1024)
	p := newTestPlatform(t, cfg)
	rec := p.Cfg.Trace

	var dispatchedAt, appliedAt float64 = -1, -1
	var dispatchCause, applyCause uint64
	cid := p.actuate(Action{
		Knob: KnobVMResize, Prio: viprip.PriorityLow, Delay: 7,
		Dispatch: func() { dispatchedAt, dispatchCause = p.Eng.Now(), rec.CurrentCause() },
		Apply:    func() { appliedAt, applyCause = p.Eng.Now(), rec.CurrentCause() },
	})
	if cid == 0 {
		t.Fatal("traced decision got no CauseID")
	}
	evs := rec.Events()
	if n := len(evs); n == 0 || evs[n-1].Type != trace.EvDecision || evs[n-1].Cause != cid ||
		Knob(evs[n-1].A) != KnobVMResize {
		t.Fatalf("decision root not recorded: %+v", evs)
	}
	if appliedAt != -1 {
		t.Fatal("delayed action applied before its delay")
	}
	p.Eng.RunUntil(10)
	if dispatchedAt != 7 || appliedAt != 7 {
		t.Errorf("dispatched at %v, applied at %v; want 7", dispatchedAt, appliedAt)
	}
	if dispatchCause != 0 || applyCause != cid {
		t.Errorf("dispatch cause %d, apply cause %d; want 0 and %d", dispatchCause, applyCause, cid)
	}

	applied := false
	p.actuate(Action{Knob: KnobServerTransfer, Inline: true, Apply: func() { applied = true }})
	if !applied {
		t.Error("inline action did not apply within the deciding call")
	}
}

// TestActuateRequestPipelineChoice checks the serialized-vs-direct
// choice: a direct request waits out Delay and then applies at once; a
// serialized one is submitted immediately and its service time stands in
// for the delay.
func TestActuateRequestPipelineChoice(t *testing.T) {
	for _, serialized := range []bool{false, true} {
		cfg := testConfig()
		cfg.SerializeReconfig = serialized
		cfg.SwitchReconfigLatency = 3
		p := newTestPlatform(t, cfg)
		app, err := p.OnboardApp("w", defaultSlice(), 2, Demand{CPU: 1, Mbps: 10})
		if err != nil {
			t.Fatal(err)
		}
		vip := p.Fabric.VIPsOfApp(app.ID)[0]
		home, _ := p.Fabric.HomeOf(vip)
		_, weights, err := p.Fabric.Switch(home).Weights(vip)
		if err != nil {
			t.Fatal(err)
		}
		doneAt := -1.0
		processed := p.VIPRIP.Processed
		p.actuate(Action{
			Knob: KnobRIPWeights, Delay: 10,
			From: ctrlplane.Global, To: ctrlplane.CSM, Name: "w",
			Request: &viprip.Request{
				Op: viprip.OpAdjustWeights, App: app.ID, VIP: vip, Weights: weights,
				OnDone: func(r *viprip.Request) {
					if r.Err != nil {
						t.Errorf("serialized=%v: %v", serialized, r.Err)
					}
					doneAt = p.Eng.Now()
				},
			},
		})
		p.Eng.RunUntil(20)
		want, wantProcessed := 10.0, processed
		if serialized {
			want, wantProcessed = 3, processed+1
		}
		if doneAt != want {
			t.Errorf("serialized=%v: request done at %v, want %v", serialized, doneAt, want)
		}
		if p.VIPRIP.Processed != wantProcessed {
			t.Errorf("serialized=%v: processed %d, want %d", serialized, p.VIPRIP.Processed, wantProcessed)
		}
	}
}

// TestRequestSettlesOnce loses every acknowledgment on the CSM→global
// link, so a delivered request's message still dead-letters: the
// outcome must be reported once, as the request's own result.
func TestRequestSettlesOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Links = map[string]ctrlplane.LinkConfig{
		ctrlplane.LinkKey(ctrlplane.CSM, ctrlplane.Global): {LossProb: 1},
	}
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("w", defaultSlice(), 2, Demand{CPU: 1, Mbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	_, weights, _ := p.Fabric.Switch(home).Weights(vip)
	var outcomes []error
	p.request(ctrlplane.Global, "w", &viprip.Request{
		Op: viprip.OpAdjustWeights, App: app.ID, VIP: vip, Weights: weights,
	}, func(err error, _ int64) { outcomes = append(outcomes, err) })
	p.Eng.RunUntil(5000)
	if p.Ctrl().DeadLetters != 1 {
		t.Fatalf("dead letters = %d, want 1 (every ack lost)", p.Ctrl().DeadLetters)
	}
	if len(outcomes) != 1 || outcomes[0] != nil {
		t.Errorf("outcomes = %v, want exactly one nil (the applied result)", outcomes)
	}
}
