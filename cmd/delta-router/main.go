// Command delta-router runs the cluster routing tier: a partition-aware
// front that makes N cache shards look like one Delta cache. Ownership
// (contiguous HTM cuts of the sky) is a pure function of the survey,
// the shard count and -replicas, and the router is the only node that
// computes it: a `delta-cache -shard` starts owning nothing, and the
// router's first reshard, at startup, tells each shard what it owns:
//
//	delta-cache -repo :7707 -addr :7801 -shard &
//	delta-cache -repo :7707 -addr :7802 -shard &
//	delta-router -repo :7707 -addr :7708 -shards 127.0.0.1:7801,127.0.0.1:7802
//
// The router and its shards build their survey from the config the
// repository (-repo, required) serves, so they cannot start over
// different universes. Clients connect to the router exactly as they
// would to a single cache; multi-object queries scatter to the owning
// shards and merge.
//
// The router also serves the live-resize admin frames: start the new
// shards (with `-shard`) and then
//
//	delta-client -cache :7708 -resize 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803,127.0.0.1:7804
//
// takes the cluster from 2 to 4 shards while it serves: each new holder
// adopts warm, in its widen reshard, the moving objects its old
// primary held resident (see docs/CLUSTER.md, "Resizing a live
// cluster").
//
// The router follows the repository's universe as it grows: at startup
// and after every invalidation-stream gap it adopts the births it
// lacks, and in between those announced on the stream, granting each
// to its owning shards; it also accepts `delta-client -grow`
// publications (docs/CLUSTER.md, "Growing the universe").
package main

import "github.com/deltacache/delta/internal/deploy"

func main() { deploy.Main("delta-router", deploy.Router) }
