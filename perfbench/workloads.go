package main

import (
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// The workloads set only what a user of the simulator would: topology,
// flows, arrivals, sizes, duration and seed. No engine knob (calendar
// backend, timer wheel) is touched, so every figure is what an unconfigured
// run gets, and a backend can be deleted without editing the benchmark.
// README.md records why each workload exists and which layers it stresses.

// runLength is the virtual length of every campaign replicate.
const runLength = 25 * time.Second

// paperSweepPlan is the paper's own job: its dumbbell swept over
// bandwidth, RTT, IFQ size and slow-start algorithm.
func paperSweepPlan(seed uint64) campaign.Plan {
	return campaign.Plan{
		Axes: []campaign.Axis{
			campaign.AxisBandwidths(50*unit.Mbps, 100*unit.Mbps),
			campaign.AxisRTTs(20*time.Millisecond, 60*time.Millisecond, 120*time.Millisecond),
			campaign.AxisTxQueueLens(50, 100),
			campaign.AxisAlgorithms(experiment.AlgStandard, experiment.AlgRestricted),
		},
		Metrics:    campaign.StockMetrics(),
		Replicates: 4,
		Duration:   runLength,
		BaseSeed:   seed,
	}
}

// webChurnPlan births and retires flows all run long: open-loop Poisson
// arrivals of bounded-Pareto transfers at 0.8 offered load, on the three
// stock topologies.
func webChurnPlan(seed uint64) campaign.Plan {
	return campaign.Plan{
		Axes: []campaign.Axis{
			campaign.AxisTopologies("dumbbell", "reverse-congested", "parking-lot"),
			campaign.AxisLoads(0.8),
			campaign.AxisFlowSizes("pareto:1.2:4k:10M"),
			campaign.AxisAlgorithms(experiment.AlgStandard, experiment.AlgRestricted),
		},
		Metrics: append(campaign.StockMetrics(),
			campaign.MetricTimeouts, campaign.MetricHopDropsMax, campaign.MetricReverseDrops,
			campaign.MetricFCTMean, campaign.MetricFCTP99, campaign.MetricSlowdownMean,
			campaign.MetricFlowsDone, campaign.MetricFlowsRefused),
		Replicates: 2,
		Duration:   runLength,
		BaseSeed:   seed,
	}
}

// Many-flows shape: a gigabit bottleneck with a 1000-packet IFQ, Poisson
// arrivals twice the admission cap so the ramp fills it, and 10 MB
// transfers that cannot finish inside the run, so the population stays
// pinned at the cap.
const (
	manyFlowsLive   = 50000
	manyFlowsRamp   = time.Second
	manyFlowsWindow = 12 * time.Second
	manyFlowsSlice  = 500 * time.Millisecond
)

func manyFlowsConfig(seed uint64) experiment.Config {
	return experiment.Config{
		Path: experiment.PathConfig{Bottleneck: unit.Gbps, TxQueueLen: 1000},
		Churn: &experiment.ChurnSpec{
			Arrivals: "poisson:100000",
			Size:     "fixed:10M",
			MaxLive:  manyFlowsLive,
			Flow:     experiment.FlowSpec{Alg: experiment.AlgStandard},
		},
		Duration:    manyFlowsRamp + manyFlowsWindow,
		Seed:        seed,
		Traceless:   true,
		RetainFlows: -1,
	}
}
