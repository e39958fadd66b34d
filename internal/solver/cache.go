package solver

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
)

// componentCacheLookup consults c for the memoized solution of the
// component key was built from, and returns the translated picks and
// whether the lookup hit. With no cache attached it returns no hit at zero
// cost. The outcome is recorded on the surrounding component span
// (attribute "cache": "hit" | "miss"), so traces and the auto per-span
// metrics expose the amortization directly.
func componentCacheLookup(ctx context.Context, c *cache.Cache, key cache.Key) ([]core.ClassifierID, bool) {
	if c == nil {
		return nil, false
	}
	picks, hit := c.Lookup(key)
	if sp := obs.FromContext(ctx); sp != nil {
		if hit {
			sp.SetAttr(obs.Str("cache", "hit"))
		} else {
			sp.SetAttr(obs.Str("cache", "miss"))
		}
	}
	return picks, hit
}
