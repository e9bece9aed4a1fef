package node

import (
	"bytes"
	"testing"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
	"github.com/deltacache/delta/internal/obs"
	"github.com/deltacache/delta/internal/persist"
)

// TestExposeAccounting pins the families both persistent roles share:
// each ledger family reads its mechanism's bytes or transfers at scrape
// time, and the durability gauges read the store, 0 without one.
func TestExposeAccounting(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for _, tc := range []struct {
		name    string
		store   *persist.Store
		records float64
	}{{"no store", nil, 0}, {"store", store, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			n := New("test", "", "", t.Logf, nil)
			var l cost.Ledger
			n.ExposeAccounting(&l, tc.store)
			l.Charge(cost.QueryShip, 3*cost.MB)
			l.Charge(cost.QueryShip, cost.MB)
			l.Charge(cost.UpdateShip, cost.KB)
			l.Charge(cost.ObjectLoad, cost.GB)
			if tc.store != nil {
				if err := tc.store.AppendAdmit(model.ObjectID(1)); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := n.Reg.WriteExposition(&buf); err != nil {
				t.Fatal(err)
			}
			fams, err := obs.ParseExposition(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]float64{
				"delta_ledger_query_ship_bytes_total":  float64(4 * cost.MB),
				"delta_ledger_update_ship_bytes_total": float64(cost.KB),
				"delta_ledger_object_load_bytes_total": float64(cost.GB),
				"delta_ledger_query_ships_total":       2,
				"delta_ledger_update_ships_total":      1,
				"delta_ledger_object_loads_total":      1,
				"delta_journal_records":                tc.records,
			}
			if len(fams) != len(want)+1 {
				t.Errorf("%d families exposed, want %d", len(fams), len(want)+1)
			}
			for name, v := range want {
				if f := fams[name]; f == nil || f.Samples[name] != v {
					t.Errorf("%s = %v, want %v", name, f, v)
				}
			}
			age := fams["delta_snapshot_age_seconds"]
			if age == nil || (tc.store == nil) != (age.Samples["delta_snapshot_age_seconds"] == 0) {
				t.Errorf("delta_snapshot_age_seconds = %v with store %v", age, tc.store)
			}
		})
	}
}
