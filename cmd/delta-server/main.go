// Command delta-server runs a Delta repository node: it hosts the
// synthetic survey, listens for cache/client connections, and — when
// -pipeline-rate is set — feeds itself synthetic telescope updates, so a
// full deployment can be demonstrated without external drivers.
package main

import "github.com/deltacache/delta/internal/deploy"

func main() { deploy.Main("delta-server", deploy.Server) }
