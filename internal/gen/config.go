// Package gen generates synthetic dynamic-OSN traces with the mechanisms
// the paper observes in Renren, standing in for the proprietary dataset
// (see DESIGN.md §2 for the substitution argument):
//
//   - exponential node arrival with seasonal dips and publicity bursts;
//   - per-node activity processes with an initial friendship burst and
//     power-law (Pareto) inter-arrival gaps that lengthen with account age;
//   - destination selection mixing preferential attachment (whose weight
//     decays as the network grows), triangle closure, and uniform random
//     choice, with homophily toward the node's home community;
//   - community structure from a Chinese-Restaurant-Process prior, giving
//     power-law community sizes;
//   - an optional network-merge event that imports a separately grown "5Q"
//     network on a configurable day, silences duplicate accounts, and adds
//     a decaying cross-network attachment boost.
//
// The output is a trace.Trace; all analyses consume only that stream.
package gen

import "math"

// Window is a time interval during which the arrival (or activity) rate is
// multiplied by Factor. Factor < 1 models holiday dips, > 1 publicity
// campaigns.
type Window struct {
	Start  int32
	Length int32
	Factor float64
}

// Contains reports whether day falls inside the window.
func (w Window) Contains(day int32) bool {
	return day >= w.Start && day < w.Start+w.Length
}

// ArrivalConfig controls the node-arrival process. The expected population
// P(d) grows multiplicatively with a relative daily growth rate that decays
// from GrowthStart to GrowthEnd with time constant GrowthTau:
//
//	g(d) = GrowthEnd + (GrowthStart-GrowthEnd) * exp(-d/GrowthTau)
//	arrivals(d) = P(d) * g(d) * dips(d) * bursts(d),  P(d+1) = P(d)*(1+g(d))
//
// A decaying relative growth rate is what the paper measures in Fig 1(b)
// (wild early growth stabilizing to a low constant), and it is also the
// mechanism behind the declining share of new-node edges in Fig 2(c).
type ArrivalConfig struct {
	InitialNodes int     // seed nodes created on day 0
	Base         float64 // initial expected population scale P(0)
	GrowthStart  float64 // relative daily growth at day 0
	GrowthEnd    float64 // asymptotic relative daily growth
	GrowthTau    float64 // decay time constant in days (<=0: constant rate)
	Dips         []Window
	Bursts       []Window
}

// GrowthAt returns the relative daily growth rate g(d).
func (a ArrivalConfig) GrowthAt(day int32) float64 {
	if a.GrowthTau <= 0 {
		return a.GrowthStart
	}
	return a.GrowthEnd + (a.GrowthStart-a.GrowthEnd)*math.Exp(-float64(day)/a.GrowthTau)
}

// ActivityConfig controls each node's edge-creation process.
type ActivityConfig struct {
	// InitialEdgesMean is the mean of the geometric burst of friendships
	// created right after joining.
	InitialEdgesMean float64
	// GapXm and GapAlpha parameterize the Pareto inter-arrival gap (days)
	// between a node's edge creations; the gap PDF has exponent
	// GapAlpha+1, the paper's 1.8–2.5 range (Fig 2a).
	GapXm    float64
	GapAlpha float64
	// AgingScale slows a node down with age: gaps are multiplied by
	// (1 + age/AgingScale), front-loading activity (Fig 2b).
	AgingScale float64
	// LifetimeXm/LifetimeAlpha draw each node's active lifetime (days)
	// from a Pareto distribution; after it elapses the node stops
	// initiating edges (it can still receive them).
	LifetimeXm    float64
	LifetimeAlpha float64
}

// AttachConfig controls destination selection.
type AttachConfig struct {
	// MaxDegree is the friend cap (Renren's default is 1000).
	MaxDegree int
	// The preferential-attachment mixing weight decays with network size
	// once it exceeds PARefNodes ("supernodes become hard to locate in
	// the massive network", §3.2):
	//
	//	paWeight(n) = clamp(PAStart - PALogSlope*log10(max(1, n/PARefNodes)),
	//	                    PAFloor, 1)
	//
	// This is the mechanism behind the α(t) decay of Fig 3(c).
	PAStart    float64
	PAFloor    float64
	PALogSlope float64
	PARefNodes float64
	// TriangleProb is the probability an edge is a friend-of-a-friend
	// closure, the source of clustering and community cohesion.
	TriangleProb float64
	// CommunityBias is the probability that a non-triangle edge is
	// restricted to the initiator's home community.
	CommunityBias float64
}

// CommunityConfig controls the home-community prior.
type CommunityConfig struct {
	// Theta is the Chinese-Restaurant-Process concentration: a joining
	// node founds a new community with probability Theta/(pool+Theta),
	// and otherwise adopts the community of a random node in the pool.
	Theta float64
	// WaveWindow and WaveProb model wave onboarding (universities join a
	// social network in bursts): with probability WaveProb the adoption
	// pool is only the most recent WaveWindow arrivals, making community
	// growth time-localized — communities are born, grow in a wave, then
	// stagnate. With probability 1-WaveProb the pool is everyone
	// (size-proportional rich-get-richer growth). WaveWindow 0 disables
	// waves entirely.
	WaveWindow int
	WaveProb   float64
}

// MergeConfig describes the 5Q network and the merge event (§5).
type MergeConfig struct {
	// Day the merge happens (the 5Q network is imported at this day).
	Day int32
	// FiveQStart is the day the 5Q network was founded.
	FiveQStart int32
	// FiveQArrivalBase is 5Q's initial population scale and FiveQGrowth
	// its (constant) relative daily growth over [FiveQStart, Day).
	FiveQArrivalBase float64
	FiveQGrowth      float64
	// FiveQActivityFactor scales 5Q users' activity down (<1): the paper
	// finds Xiaonei users create over twice as many edges (§5.2).
	FiveQActivityFactor float64
	// FiveQInitialEdgesMean is 5Q's initial-burst mean (5Q is "loosely
	// connected": 670K users, only 3M edges).
	FiveQInitialEdgesMean float64
	// XiaoneiInactiveFrac and FiveQInactiveFrac are the duplicate-account
	// fractions silenced immediately at the merge (paper: 11% and 28%).
	XiaoneiInactiveFrac float64
	FiveQInactiveFrac   float64
	// CrossBoost is the initial probability that a pre-merge user's edge
	// targets the opposite network; it decays as exp(-(t-Day)/CrossTau)
	// down to CrossFloor.
	CrossBoost float64
	CrossTau   float64
	CrossFloor float64
}

// Config is the full generator configuration.
type Config struct {
	Seed     int64
	Days     int32
	MaxNodes int // hard cap on total nodes (safety valve)

	Arrival   ArrivalConfig
	Activity  ActivityConfig
	Attach    AttachConfig
	Community CommunityConfig

	// Merge is nil for a single-network trace.
	Merge *MergeConfig
}

// DefaultConfig returns the scaled-down Renren scenario used by the figure
// benches: the paper's 771-day horizon with the merge on day 386, sized to
// roughly 1/150 of Renren (≈10^5 nodes, ≈10^6 edges).
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Days:     771,
		MaxNodes: 400_000,
		Arrival: ArrivalConfig{
			InitialNodes: 2,
			Base:         16,
			GrowthStart:  0.03,
			GrowthEnd:    0.007,
			GrowthTau:    150,
			Dips: []Window{
				{Start: 56, Length: 14, Factor: 0.35},  // lunar new year 1
				{Start: 222, Length: 60, Factor: 0.55}, // summer vacation 1
				{Start: 432, Length: 14, Factor: 0.35}, // lunar new year 2
				{Start: 587, Length: 60, Factor: 0.55}, // summer vacation 2
			},
			Bursts: []Window{
				{Start: 300, Length: 25, Factor: 2.2}, // publicity campaigns (§2)
			},
		},
		Activity: ActivityConfig{
			InitialEdgesMean: 3.5,
			GapXm:            2.5,
			GapAlpha:         1.25,
			AgingScale:       30,
			LifetimeXm:       30,
			LifetimeAlpha:    0.6,
		},
		Attach: AttachConfig{
			MaxDegree:     1000,
			PAStart:       1.0,
			PAFloor:       0.15,
			PALogSlope:    0.5,
			PARefNodes:    2000,
			TriangleProb:  0.45,
			CommunityBias: 0.8,
		},
		Community: CommunityConfig{Theta: 18, WaveWindow: 1500, WaveProb: 0.75},
		Merge: &MergeConfig{
			Day:                   386,
			FiveQStart:            140,
			FiveQArrivalBase:      25,
			FiveQGrowth:           0.02,
			FiveQActivityFactor:   0.45,
			FiveQInitialEdgesMean: 1.6,
			XiaoneiInactiveFrac:   0.11,
			FiveQInactiveFrac:     0.28,
			CrossBoost:            0.45,
			CrossTau:              12,
			CrossFloor:            0.03,
		},
	}
}

// LargeConfig returns the million-node out-of-core scenario: the default
// 771-day Renren+5Q shape with the arrival processes scaled ~10×. At this
// size the event stream (~10⁷ events) stops fitting comfortably next to
// the analyses, which is exactly what the streaming data plane is for:
// generate with GenerateToFile, replay with trace.OpenTrace, and the
// only O(events) artifact is the file (see DESIGN.md §4).
func LargeConfig() Config {
	c := DefaultConfig()
	c.MaxNodes = 4_000_000
	c.Arrival.Base = 160
	c.Merge.FiveQArrivalBase = 250
	return c
}

// SmallConfig returns a quick configuration (a few thousand nodes) for
// tests and examples.
func SmallConfig() Config {
	c := DefaultConfig()
	c.Days = 300
	c.MaxNodes = 30_000
	c.Arrival.Base = 35
	c.Arrival.GrowthStart = 0.04
	c.Arrival.GrowthEnd = 0.012
	c.Arrival.GrowthTau = 60
	c.Arrival.Dips = []Window{{Start: 56, Length: 14, Factor: 0.35}}
	c.Arrival.Bursts = nil
	c.Merge = &MergeConfig{
		Day:                   150,
		FiveQStart:            60,
		FiveQArrivalBase:      25,
		FiveQGrowth:           0.04,
		FiveQActivityFactor:   0.45,
		FiveQInitialEdgesMean: 1.6,
		XiaoneiInactiveFrac:   0.11,
		FiveQInactiveFrac:     0.28,
		CrossBoost:            0.45,
		CrossTau:              10,
		CrossFloor:            0.03,
	}
	return c
}
