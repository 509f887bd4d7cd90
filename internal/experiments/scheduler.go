package experiments

import (
	"context"

	"github.com/parallel-frontend/pfe/internal/shard"
)

// ShardStat describes one worker's share of a runSharded batch. It is the
// shared scheduler's per-worker statistic; the alias keeps the experiments
// API (cmd/pfe-bench's ShardObserver) independent of internal/shard.
type ShardStat = shard.Stat

// runSharded executes run(i) exactly once for every i in [0, n) on the
// shared deterministic work-stealing pool; see internal/shard.Run.
func runSharded(ctx context.Context, n, workers int, run func(idx int)) []ShardStat {
	return shard.Run(ctx, n, workers, run)
}

// runShardedHooked is runSharded with worker attribution and steal hooks,
// for span-traced sweeps; see internal/shard.RunHooked.
func runShardedHooked(ctx context.Context, n, workers int, h shard.Hooks, run func(worker, idx int)) []ShardStat {
	return shard.RunHooked(ctx, n, workers, h, run)
}
