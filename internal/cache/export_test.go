package cache

import "github.com/deltacache/delta/internal/model"

// AwaitRegistered registers objects on m's invalidation stream and waits
// until the repository has echoed them, so that every later notice on
// them reaches m's policy.
func AwaitRegistered(m *Middleware, objects []model.ObjectID) bool {
	return m.inv.AwaitConfirmed(objects)
}

// InterestGen is the generation of m's registrations; each gap of its
// invalidation stream moves it on.
func InterestGen(m *Middleware) uint64 { return m.inv.Gen() }
