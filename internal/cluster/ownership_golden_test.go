package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/deltacache/delta/internal/cost"
	"github.com/deltacache/delta/internal/model"
)

// ownershipDigest hashes what an ownership tells its callers about each
// object of its universe, in universe order: the ID, the primary and
// the ranked replica set.
func ownershipDigest(o *Ownership) string {
	h := sha256.New()
	for _, obj := range o.universe {
		primary, _ := o.Owner(obj.ID)
		owners, _ := o.Owners(obj.ID)
		fmt.Fprintf(h, "%d %d %v\n", obj.ID, primary, owners)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOwnershipGolden pins placement by sha256: fresh cuts of two
// survey universes at every shard count and replication factor, three
// resize chains and two birth orders through Extend. A refactor of the
// placement must leave every row byte-identical, and one that means to
// move objects updates the rows it moves.
func TestOwnershipGolden(t *testing.T) {
	golden := map[string]string{
		"extend/in-order/k1":     "dc0af4bde16ffaadd1249b7984ea82645214807dc982e9805a5997af28d04706",
		"extend/in-order/k2":     "6be99f1db96013e4a55a16a46f5cf05391893396d95d66fce5043b84c6a15d29",
		"extend/in-order/k3":     "2093cfff8b7ddedc9fc588f0fb5eceeca27745f082a24d0a7ab9dab5ef6b5024",
		"extend/out-of-order/k1": "62b208851263e5dc6610fb05cba662ea3dc1c50d1c8ed13252982199b38430f6",
		"extend/out-of-order/k2": "c28543a8cb98c5e154a85cf1c459c74663adab89b376f7ca1c280636ff91f385",
		"extend/out-of-order/k3": "299af53ff45e87edf54da25e9ca118ef48a77fced3f70f5f00a65dc647e55c33",
		"survey68/4→5/k1":        "773182a7da11e8bc4f5153d77c85129d504f6a4f9a5d72f6e11a9d4598525204",
		"survey68/4→5/k2":        "6e21b3778d5a36c6b959b78d5179e89fd6aed627af2ad827847200a7e51389c9",
		"survey68/4→5/k3":        "4373401c0e8a647678a8d993db197aabcb308453b1c20abb163c2ab3d61ac19b",
		"survey68/4→8/k1":        "145fd43a3128f13cfdfcf5efcb3484fec44396a24568d0cb2adee125d2054fae",
		"survey68/4→8/k2":        "f601198dc93386b52afcdfaba3611a9838aab956354c7ab5bfc1df5a500191e7",
		"survey68/4→8/k3":        "517febba11f867f9a6005a45354d535fd8e40088c4cbc8affbd038cec9d08712",
		"survey68/8→4/k1":        "34bb702d2a4889eac0673a46c6e01573f4adb72c4f03978f68e37d496422459b",
		"survey68/8→4/k2":        "84751f5310b54c5f7c33563e6a5e7007d26ba4497724bc2c8e2b38a36d6f7c2d",
		"survey68/8→4/k3":        "6d2e001af93442403783c480816545110916f0bd38cc1b3789ed143ef6c82aed",
		"survey68/n1/k1":         "cac2f6503a8706e2c6390c679282711ec5977222d73d5af411708cbdd7e81219",
		"survey68/n1/k2":         "cac2f6503a8706e2c6390c679282711ec5977222d73d5af411708cbdd7e81219",
		"survey68/n1/k3":         "cac2f6503a8706e2c6390c679282711ec5977222d73d5af411708cbdd7e81219",
		"survey68/n2/k1":         "5ec71049e240a321213edec1968e9716a672bb0b33e05cf75bca529adf674c1f",
		"survey68/n2/k2":         "9355743661f4ff1a41895bb6496c450256fdb6485b0be777c47fee9545308e0d",
		"survey68/n2/k3":         "9355743661f4ff1a41895bb6496c450256fdb6485b0be777c47fee9545308e0d",
		"survey68/n4/k1":         "8ed8860f2857af581f2f4c250dc841725a70bd8c0236701edd8f0b692b40eb0c",
		"survey68/n4/k2":         "d20f5f972b113729b1614ee25754c73852500f57a2f074c89379efec2f83a7e0",
		"survey68/n4/k3":         "c8ea4c439421cf8a63171fef6fa0fb92a2394ef00c482ec56058db5a2289ed4c",
		"survey68/n8/k1":         "93e43e94691db4b4a37de0903957cdd76c7d38cf3cf8b6bf914872c7ee80aca9",
		"survey68/n8/k2":         "6d95311e7ce4d7f7dde613ff1e4a707f6c7376eacfce951bb2c869dc850f8108",
		"survey68/n8/k3":         "3af58060176763e2ca5eff7bf0c10c53a2d8f2e4ebd8cf2f4dd2acf8f93f9640",
		"survey400/4→5/k1":       "428db3c9d8db8e2bdc4a1647cabfbcc13d025e9862c0b481794e92b7667c1b7d",
		"survey400/4→5/k2":       "2c877f8b2b8c3c22b0c530af0885504fc353e190700a0773153a5c77292a2127",
		"survey400/4→5/k3":       "1b96583c5e9588d0b214820f54a2088b6b08f0a2d52a1b1a194cd66059a23249",
		"survey400/4→8/k1":       "5ffd132c48f3db38ba1a30610f631a5e72fe6b04422d718a0bc8ed30eeec2aaa",
		"survey400/4→8/k2":       "ac3d0efd6ce8444119b306e8c414669c9cf1c3e922e0c2090d1ed68f89338a74",
		"survey400/4→8/k3":       "3ca2398f94de5b2bbc1289091bf90db497b38c333dd5cc63e46ef818ff9d8b86",
		"survey400/8→4/k1":       "dccaa0f0c319694b25ee0b9fb53d3d60a9f5be97491c21003475b760e00b95b2",
		"survey400/8→4/k2":       "c8ea6ceda11c7f0bf4fdaf4f3b927813daaf8645f606eb2cd42cc5e7019b2dfd",
		"survey400/8→4/k3":       "a221956e2302b29d21e2c3719be895dd00b5f72e53cd91e5832de574a727b159",
		"survey400/n1/k1":        "ac4b7a262084840886383417e7434876549b02be260da703c998b7ff9a7e4aa7",
		"survey400/n1/k2":        "ac4b7a262084840886383417e7434876549b02be260da703c998b7ff9a7e4aa7",
		"survey400/n1/k3":        "ac4b7a262084840886383417e7434876549b02be260da703c998b7ff9a7e4aa7",
		"survey400/n2/k1":        "164fca2594d821b98c83b5bfa78e431f8dca4328bd8c9a6d69b441adce11f2ae",
		"survey400/n2/k2":        "e2aecb475345077e19267b1d5fc441cf49e5e1c3e7690af4352d867b3d0872c4",
		"survey400/n2/k3":        "e2aecb475345077e19267b1d5fc441cf49e5e1c3e7690af4352d867b3d0872c4",
		"survey400/n4/k1":        "f784b3c30c593d37c73d02d1daa45138f6bba8d36dfd0d0e4cef1f02b10c3b72",
		"survey400/n4/k2":        "f064496bbd0b0aca98dbf3f4d936b8e96d53094fb62ff9b6afc3657a6608aca5",
		"survey400/n4/k3":        "f2a4f9bbb7557a94c0f0ed9f2a6544d3144c0838fb61da7ba46e7e3d51849395",
		"survey400/n8/k1":        "5e30c17f73434388052752a809182fa83e0d3fe38615cf318b991e8badbe002e",
		"survey400/n8/k2":        "94dcf5a414cdd1f1dd125896e5840da78fbbc1041a34fd04106e86d44c50b06a",
		"survey400/n8/k3":        "159f399f729c1a58970b85e577b94d494da6642fbcf35a9d7651aa6a8050615a",
	}
	got := make(map[string]string)
	universes := map[int][]model.Object{68: testObjects(t, 68), 400: testObjects(t, 400)}
	for size, objects := range universes {
		for k := 1; k <= 3; k++ {
			for _, n := range []int{1, 2, 4, 8} {
				got[fmt.Sprintf("survey%d/n%d/k%d", size, n, k)] = ownershipDigest(mustOwnership(t, objects, n, k))
			}
			for _, chain := range [][2]int{{4, 5}, {4, 8}, {8, 4}} {
				resized, err := mustOwnership(t, objects, chain[0], k).Resize(chain[1])
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("survey%d/%d→%d/k%d", size, chain[0], chain[1], k)] = ownershipDigest(resized)
			}
		}
	}
	base := testObjects(t, 16)
	birth := func(id model.ObjectID) model.Object {
		// 17 shares a base object's cell, 18 sorts before every cut,
		// 19 after every cut.
		trixel := map[model.ObjectID]uint64{17: base[5].Trixel, 18: 0, 19: 1 << 40}[id]
		return model.Object{ID: id, Size: cost.MB, Trixel: trixel}
	}
	for k := 1; k <= 3; k++ {
		for name, ids := range map[string][]model.ObjectID{"in-order": {17, 18, 19}, "out-of-order": {18, 17, 19}} {
			own := mustOwnership(t, base, 4, k)
			for _, id := range ids {
				var err error
				if own, err = own.Extend([]model.Object{birth(id)}); err != nil {
					t.Fatal(err)
				}
			}
			got[fmt.Sprintf("extend/%s/k%d", name, k)] = ownershipDigest(own)
		}
	}
	for name, sum := range got {
		if want, ok := golden[name]; !ok || sum != want {
			t.Errorf("%s: sha256 %s, want %s", name, sum, want)
		}
	}
	if len(golden) != len(got) {
		t.Errorf("%d golden rows, %d computed", len(golden), len(got))
	}
}
