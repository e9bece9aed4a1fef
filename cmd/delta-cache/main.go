// Command delta-cache runs the Delta middleware node: the dynamic data
// cache that sits near the clients and decouples data objects between
// itself and the repository using the configured policy. It builds its
// survey from the config its repository (-repo) serves; a standalone
// cache adopts the repository's births at startup and after every
// invalidation-stream gap, a -shard cache those its router grants.
package main

import "github.com/deltacache/delta/internal/deploy"

func main() { deploy.Main("delta-cache", deploy.Cache) }
