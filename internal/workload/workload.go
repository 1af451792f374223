// Package workload generates the synthetic global traffic that stands
// in for the paper's two-week sample of real CDN connections (see
// DESIGN.md §2). A Scenario describes per-country client populations,
// request mixes, censorship deployments, and temporal patterns; Run
// simulates every connection through real TCP endpoints and DPI
// middleboxes and returns the capture records the classifier consumes.
//
// Scale note: the paper samples 1 in 10 000 connections out of ~45M
// req/s; we generate the sampled population directly (the capture
// sampler still runs, at rate 1) and size it in the tens or hundreds of
// thousands, which preserves every per-country and per-signature
// proportion the analyses measure.
package workload

import (
	"hash/fnv"
	"math/rand/v2"
	"net/netip"
	"time"

	"tamperdetect/internal/capture"
	"tamperdetect/internal/domains"
	"tamperdetect/internal/faults"
	"tamperdetect/internal/geo"
	"tamperdetect/internal/httpwire"
	"tamperdetect/internal/middlebox"
	"tamperdetect/internal/netsim"
	"tamperdetect/internal/tcpsim"
	"tamperdetect/internal/tlswire"
)

// CensorStyle identifies how a country (or one of its ASes) tampers.
type CensorStyle int

// Censor styles, each mapping to a middlebox profile.
const (
	StyleNone CensorStyle = iota
	StyleGFW
	StyleGFWIPBlock
	StyleIranDPI
	StyleHTTPReset
	StyleTSPU // per-AS variant selection
	StyleAckGuessRandomTTL
	StyleAckGuessFixedTTL
	StylePostACKMultiRST
	StyleEnterpriseRST
	StyleEnterpriseRSTACK
	StyleIPBlackhole
	StyleIPResetRST
	StyleIPResetRSTACK
	StyleIPIDCopy
	// Fixed TSPU variants for countries with one known behaviour.
	StyleDropRSTACK      // drop trigger + single RST+ACK: ⟨SYN;ACK → RST+ACK⟩
	StylePSHBlackhole    // forward trigger, blackhole: ⟨PSH+ACK → ∅⟩
	StylePSHSingleRST    // ⟨PSH+ACK → RST⟩
	StylePSHDoubleRST    // ⟨PSH+ACK → RST=RST⟩
	StylePSHSingleRSTACK // ⟨PSH+ACK → RST+ACK⟩
)

// WeightedStyle pairs a style with its share of the country's censored
// connections.
type WeightedStyle struct {
	Style  CensorStyle
	Weight float64
}

// CountryConfig describes one country's clients and censorship.
type CountryConfig struct {
	Code string
	// Share is the country's fraction of global connections.
	Share float64
	// ASCount/ASSkew shape the geo address plan.
	ASCount int
	ASSkew  float64
	// IPv6Share is the fraction of connections over IPv6.
	IPv6Share float64
	// V6SeekFactor scales blocked-seeking for IPv6 connections
	// (Figure 7a's per-country disparities: Sri Lanka tampers IPv4
	// far more than IPv6, Kenya the reverse). 0 means 1 (no bias).
	V6SeekFactor float64
	// TZOffset shifts the local diurnal curves (hours east of UTC).
	TZOffset int
	// Profile is the request category mix.
	Profile domains.CategoryProfile
	// BlockCoverage is the probability that a given domain of a
	// category is on the country's blocklist (Table 2's "coverage").
	BlockCoverage map[domains.Category]float64
	// BlockedSeekBase is the base probability a connection seeks
	// blocked content; with incidental hits it sets the tampering rate.
	BlockedSeekBase float64
	// NightBoost raises blocked-seeking during local night (Figure 6).
	NightBoost float64
	// WeekendFactor scales blocked-seeking on weekends (<1 lowers it).
	WeekendFactor float64
	// Styles is the censor-style mix.
	Styles []WeightedStyle
	// Decentralized varies intensity and style per AS (Figure 5);
	// MinASIntensity is the weakest AS's intensity multiplier.
	Decentralized  bool
	MinASIntensity float64
	// HTTPOnlyCensor limits content censorship to cleartext HTTP
	// (Turkmenistan's TLS blind spot, Figure 7b).
	HTTPOnlyCensor bool
	// HTTPLeniency is the probability that a censor lets a cleartext
	// HTTP request through where it would have blocked the TLS
	// equivalent — SNI-focused deployments make TLS handshakes more
	// tampered than HTTP overall (Figure 7b's slope 0.3).
	HTTPLeniency float64
	// ForceHTTPShare forces plain HTTP regardless of the domain's
	// HTTPS share (legacy-heavy client populations).
	ForceHTTPShare float64
	// Client quirk shares (§4.2 threats to validity), plus the benign
	// behaviours behind the large uncovered stage masses of §4.1:
	// AbandonShare (no-FIN idle after data → Post-Data timeouts) and
	// StallShare (silence after the handshake → Post-ACK lookalikes).
	ScannerShare    float64
	HEResetShare    float64
	HEDropShare     float64
	WeirdShare      float64
	AbandonShare    float64
	ResetCloseShare float64
	StallShare      float64
	SYNPayloadShare float64
	// HourlySeek, if set, overrides blocked-seeking probability per
	// scenario hour (the Iran 2022 case study).
	HourlySeek func(hour int) float64
	// HourlyStyles, if set, overrides the style mix per scenario hour.
	HourlyStyles func(hour int) []WeightedStyle
}

// Scenario is a full experiment description.
type Scenario struct {
	Name      string
	Seed      uint64
	Hours     int
	Total     int // total connections across the scenario
	Countries []CountryConfig
	Universe  *domains.Universe
	Geo       *geo.DB
	// StartWeekday is the weekday of hour 0 (0=Monday … 6=Sunday).
	StartWeekday int
	// SYNPayloadSurgeDay, when ≥0, marks a day where a burst of
	// request-on-SYN traffic targets a handful of domains — the
	// anomaly behind §4.1's "38% of port-80 SYNs carried an HTTP
	// payload, 93% of them to the same four domains". -1 disables.
	SYNPayloadSurgeDay int
	// CaptureConfig lets ablations change sampling; zero value means
	// capture.DefaultConfig().
	CaptureConfig capture.Config
	// Impairments applies benign link pathologies (burst loss,
	// reordering, duplication, jitter, corruption, truncation) to every
	// connection's path; the zero value is a clean network. See
	// internal/faults for the named grades.
	Impairments faults.Config
}

// ConnSpec is everything needed to simulate one connection
// deterministically.
type ConnSpec struct {
	Index int
	Seed  uint64
	// Start is the connection's virtual arrival time — the instant its
	// arrival event fired on the scenario's simtime engine. The
	// per-connection simulation clock starts here, so every capture
	// timestamp derives from it at nanosecond resolution (quantized to
	// the paper's 1-second granularity by the sampler).
	Start   netsim.Time
	Country *CountryConfig
	AS      *geo.AS
	V6      bool
	// HostIdx pins the client to a deterministic address within the AS
	// (repeat clients, Appendix B); -1 draws a random host.
	HostIdx  int
	Domain   *domains.Domain
	UseTLS   bool
	Behavior tcpsim.Behavior
	// Blocked marks the domain as on the country's blocklist.
	Blocked bool
	// Style is the censor style applied (StyleNone if not censored).
	Style   CensorStyle
	Variant int // per-AS TSPU variant, ack-guess flavour, …
	// SYNPayload carries the request on the SYN (§4.1 clients).
	SYNPayload bool
	// Intensity scales whether the censor actually fires (per-AS
	// decentralization); the censor is installed iff a per-connection
	// draw passed, which the generator encodes here.
	CensorActive bool
	// KeywordTrigger marks enterprise-firewall connections whose
	// *second* request carries the keyword.
	KeywordTrigger bool
	// TTLInit and IPIDZero pick the client OS conventions.
	TTLInit  uint8
	IPIDZero bool
}

// Hour returns the scenario hour the spec's arrival falls in.
func (spec *ConnSpec) Hour() int { return int(spec.Start / netsim.Time(time.Hour)) }

// Day returns the scenario day the spec's arrival falls in.
func (spec *ConnSpec) Day() int { return int(spec.Start / netsim.Time(24*time.Hour)) }

// blockKeyword is the keyword enterprise firewalls match on.
const blockKeyword = "forbidden-topic"

// hashUnit hashes strings to [0,1) deterministically (independent of
// any RNG stream), used for per-(country,domain) and per-AS decisions
// that must be consistent across connections.
func hashUnit(parts ...string) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// splitmixStr hashes a string to 64 bits for deterministic seeds.
func splitmixStr(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// specDomainName is the spec's domain name or "" for scanners.
func specDomainName(spec *ConnSpec) string {
	if spec.Domain == nil {
		return ""
	}
	return spec.Domain.Name
}

// resetProne marks the popular domains whose clients habitually close
// with RSTs (a fixed ~15% of each category's top-100).
func resetProne(d *domains.Domain) bool {
	return d.CatRank <= 60 && hashUnit("rstclose", d.Name) < 0.09
}

// IsBlocked reports whether the country blocks the domain, consistent
// across all connections of a scenario.
func IsBlocked(c *CountryConfig, d *domains.Domain) bool {
	cov := c.BlockCoverage[d.Category]
	if cov <= 0 {
		return false
	}
	return hashUnit("blk", c.Code, d.Name) < cov
}

// asIntensity returns the AS's censorship intensity in
// [MinASIntensity, 1] for decentralized countries, 1 otherwise.
func asIntensity(c *CountryConfig, as *geo.AS) float64 {
	if !c.Decentralized {
		return 1
	}
	lo := c.MinASIntensity
	if lo < 0 {
		lo = 0
	}
	return lo + (1-lo)*hashUnit("asint", c.Code, itoa(int(as.ASN)))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// localHour converts a scenario hour to the country's local hour.
func localHour(c *CountryConfig, hour int) int {
	h := (hour + c.TZOffset) % 24
	if h < 0 {
		h += 24
	}
	return h
}

// nightFactor implements the Figure 6 pattern: blocked-seeking is
// boosted between local midnight and 8 AM, with soft shoulders.
func nightFactor(local int) float64 {
	switch {
	case local < 8:
		return 1
	case local < 10, local >= 22:
		return 0.3
	default:
		return 0
	}
}

// volumeFactor is the raw traffic diurnal curve: daytime peak.
func volumeFactor(local int) float64 {
	switch {
	case local >= 9 && local < 22:
		return 1.0
	case local >= 7 && local < 9:
		return 0.7
	default:
		return 0.45
	}
}

// isWeekend reports whether the scenario hour falls on Sat/Sun.
func (s *Scenario) isWeekend(hour int) bool {
	day := (s.StartWeekday + hour/24) % 7
	return day >= 5
}

// seekProbability computes the blocked-seeking probability for a
// country at a scenario hour.
func (s *Scenario) seekProbability(c *CountryConfig, hour int) float64 {
	base := c.BlockedSeekBase
	if c.HourlySeek != nil {
		base = c.HourlySeek(hour)
	}
	p := base * (1 + c.NightBoost*nightFactor(localHour(c, hour)))
	if s.isWeekend(hour) && c.WeekendFactor > 0 {
		p *= c.WeekendFactor
	}
	if p > 0.97 {
		p = 0.97
	}
	return p
}

// pickStyle draws a censor style from the country's (possibly hourly)
// mix.
func pickStyle(c *CountryConfig, hour int, rng *rand.Rand) CensorStyle {
	styles := c.Styles
	if c.HourlyStyles != nil {
		styles = c.HourlyStyles(hour)
	}
	if len(styles) == 0 {
		return StyleNone
	}
	total := 0.0
	for _, w := range styles {
		total += w.Weight
	}
	r := rng.Float64() * total
	for _, w := range styles {
		if r < w.Weight {
			return w.Style
		}
		r -= w.Weight
	}
	return styles[len(styles)-1].Style
}

// buildSpec draws one connection's parameters. The arrival instant is
// not drawn here: it comes from the bucket's arrival process and is
// stamped by the simtime engine merge (see arrivals.go).
func (s *Scenario) buildSpec(idx int, c *CountryConfig, hour int, rng *rand.Rand) ConnSpec {
	spec := ConnSpec{
		Index:   idx,
		Seed:    s.Seed ^ (uint64(idx)*0x9e3779b97f4a7c15 + 0x123456789),
		Country: c,
		HostIdx: -1,
	}
	spec.AS = s.Geo.PickAS(rng, c.Code)
	// A quarter of connections come from repeat clients: a small pool
	// of per-AS hosts that return to the same domains, producing the
	// IP-domain pairs Appendix B measures for consistency.
	repeat := rng.Float64() < 0.25
	if repeat {
		spec.HostIdx = rng.IntN(120)
	}
	spec.V6 = rng.Float64() < c.IPv6Share
	spec.TTLInit = 64
	if rng.Float64() < 0.3 {
		spec.TTLInit = 128
	}
	spec.IPIDZero = rng.Float64() < 0.25

	// Client quirks preempt normal requests.
	q := rng.Float64()
	cum := c.ScannerShare
	switch {
	case q < cum:
		spec.Behavior = tcpsim.BehaviorScanner
		return spec
	case q < cum+c.HEResetShare:
		spec.Behavior = tcpsim.BehaviorHappyEyeballsReset
		return spec
	case q < cum+c.HEResetShare+c.HEDropShare:
		spec.Behavior = tcpsim.BehaviorHappyEyeballsDrop
		return spec
	case q < cum+c.HEResetShare+c.HEDropShare+c.StallShare:
		spec.Behavior = tcpsim.BehaviorStallHandshake
		return spec
	case q < cum+c.HEResetShare+c.HEDropShare+c.StallShare+c.WeirdShare:
		if rng.IntN(2) == 0 {
			spec.Behavior = tcpsim.BehaviorRedundantACK
			return spec
		}
		spec.Behavior = tcpsim.BehaviorDoubleSYN
		// DoubleSYN still requests content.
	case q < cum+c.HEResetShare+c.HEDropShare+c.StallShare+c.WeirdShare+c.AbandonShare:
		spec.Behavior = tcpsim.BehaviorAbandon
		// Abandoners request content too; they just never close.
	}

	// Domain selection: blocked-seeking vs organic. Repeat clients use
	// a per-client RNG so the same host returns to the same domains.
	domRNG := rng
	if repeat {
		hseed := uint64(spec.AS.ASN)<<20 ^ uint64(spec.HostIdx)*0x2545f491
		domRNG = rand.New(rand.NewPCG(hseed, hseed^0xface))
	}
	seek := s.seekProbability(c, hour)
	if spec.V6 && c.V6SeekFactor > 0 {
		seek *= c.V6SeekFactor
		if seek > 0.97 {
			seek = 0.97
		}
	}
	if rng.Float64() < seek {
		for try := 0; try < 60; try++ {
			d := s.Universe.Sample(domRNG, &c.Profile)
			if IsBlocked(c, d) {
				spec.Domain = d
				spec.Blocked = true
				break
			}
		}
	}
	if spec.Domain == nil {
		spec.Domain = s.Universe.Sample(domRNG, &c.Profile)
		spec.Blocked = IsBlocked(c, spec.Domain)
	}
	spec.UseTLS = rng.Float64() < spec.Domain.HTTPSShare
	if rng.Float64() < c.ForceHTTPShare {
		spec.UseTLS = false
	}
	// RST-close clients concentrate on specific popular services (apps
	// that tear down keep-alive connections with RSTs), which is what
	// keeps Table 2's per-category coverage low in lightly-censored
	// countries while ⟨PSH+ACK;Data → RST⟩ matches appear everywhere.
	if spec.Behavior == tcpsim.BehaviorNormal && resetProne(spec.Domain) &&
		rng.Float64() < min(0.9, c.ResetCloseShare*16) {
		spec.Behavior = tcpsim.BehaviorResetClose
	}
	synShare := c.SYNPayloadShare
	if s.SYNPayloadSurgeDay >= 0 && hour/24 == s.SYNPayloadSurgeDay {
		synShare = 0.38
	}
	spec.SYNPayload = !spec.UseTLS && rng.Float64() < synShare
	if spec.SYNPayload && rng.Float64() < 0.93 {
		// The surge concentrates on four hot content-server domains.
		hot := s.Universe.Categories(domains.ContentServers)
		if len(hot) >= 4 {
			spec.Domain = hot[rng.IntN(4)]
			spec.Blocked = IsBlocked(c, spec.Domain)
		}
	}

	// Censor installation.
	if spec.Blocked {
		style := pickStyle(c, hour, rng)
		if style != StyleNone && rng.Float64() < asIntensity(c, spec.AS) {
			switch {
			case c.HTTPOnlyCensor && spec.UseTLS:
				// TLS is invisible to this censor (TM, Figure 7b).
			case !spec.UseTLS && !c.HTTPOnlyCensor && rng.Float64() < c.HTTPLeniency:
				// SNI-focused censor passes the cleartext request.
			default:
				spec.Style = style
				spec.CensorActive = true
				spec.Variant = int(hashUnit("variant", c.Code, itoa(int(spec.AS.ASN)))*5) % 5
				if style == StyleEnterpriseRST || style == StyleEnterpriseRSTACK {
					spec.KeywordTrigger = true
				}
			}
		}
	}
	return spec
}

// serverIP4 and serverIP6 are the CDN edge addresses clients connect to.
var (
	serverIP4 = netip.MustParseAddr("192.0.2.80")
	serverIP6 = netip.MustParseAddr("2001:db8:edce::80")
)

// policiesFor builds the middlebox policies of a spec. The domain
// matcher consults the country's blocklist over the whole universe, so
// the middlebox behaves like a real deployment (retransmissions and
// unrelated domains are judged the same way).
func policiesFor(spec *ConnSpec, u *domains.Universe) []middlebox.Policy {
	if !spec.CensorActive {
		return nil
	}
	c := spec.Country
	match := func(d string) bool {
		if dom := u.ByName(d); dom != nil {
			return IsBlocked(c, dom)
		}
		return spec.Domain != nil && spec.Domain.Name == d
	}
	ipAll := func(netip.Addr) bool { return true }
	seed := uint64(spec.AS.ASN)<<32 ^ uint64(splitmixStr(c.Code+"|"+specDomainName(spec)))
	withSeed := func(p middlebox.Policy) []middlebox.Policy {
		p.ActionSeed = seed
		return []middlebox.Policy{p}
	}
	switch spec.Style {
	case StyleGFW:
		return withSeed(middlebox.GFW(match))
	case StyleGFWIPBlock:
		return withSeed(middlebox.GFWIPBlock(ipAll))
	case StyleIranDPI:
		return withSeed(middlebox.IranDPI(match))
	case StyleHTTPReset:
		return withSeed(middlebox.HTTPReset(match))
	case StyleTSPU:
		return withSeed(middlebox.TSPUVariant(match, spec.Variant))
	case StyleAckGuessRandomTTL:
		return withSeed(middlebox.AckGuessingRST(match, true))
	case StyleAckGuessFixedTTL:
		return withSeed(middlebox.AckGuessingRST(match, false))
	case StylePostACKMultiRST:
		return withSeed(middlebox.PostHandshakeMultiRST(match))
	case StyleEnterpriseRST:
		return withSeed(middlebox.EnterpriseFirewall(blockKeyword, false))
	case StyleEnterpriseRSTACK:
		return withSeed(middlebox.EnterpriseFirewall(blockKeyword, true))
	case StyleIPBlackhole:
		return withSeed(middlebox.IPBlackhole(ipAll))
	case StyleIPResetRST:
		return withSeed(middlebox.IPReset(ipAll, false, 1))
	case StyleIPResetRSTACK:
		return withSeed(middlebox.IPReset(ipAll, true, 1))
	case StyleIPIDCopy:
		return withSeed(middlebox.IPIDCopyingCensor(match))
	case StyleDropRSTACK:
		return withSeed(middlebox.TSPUVariant(match, 3))
	case StylePSHBlackhole:
		return withSeed(middlebox.TSPUVariant(match, 0))
	case StylePSHSingleRST:
		return withSeed(middlebox.TSPUVariant(match, 1))
	case StylePSHDoubleRST:
		return withSeed(middlebox.TSPUVariant(match, 2))
	case StylePSHSingleRSTACK:
		return withSeed(middlebox.TSPUVariant(match, 4))
	default:
		return nil
	}
}

// Run simulates all specs with the given parallelism (0 = GOMAXPROCS)
// and returns the capture records in spec order, dropping unsampled
// connections.
func (s *Scenario) Run(workers int) []*capture.Connection {
	out := s.RunSpecs(s.Specs(), workers)
	compact := out[:0]
	for _, c := range out {
		if c != nil {
			compact = append(compact, c)
		}
	}
	return compact
}

// RunSpecs simulates a prepared spec list. The result is positional:
// element i belongs to specs[i] and is nil when the sampler did not
// select that connection. It is StreamSpecs collected: simulation
// order never affects the output, each spec carries its own seed.
func (s *Scenario) RunSpecs(specs []ConnSpec, workers int) []*capture.Connection {
	out := make([]*capture.Connection, 0, len(specs))
	sr := s.StreamSpecs(specs, workers)
	for {
		chunk, ok := sr.nextChunk()
		if !ok {
			return out
		}
		out = append(out, chunk...)
	}
}

// SimulateConn runs one connection through the full stack and returns
// its capture record (nil if the sampler did not select it). A non-zero
// imp applies benign link impairments to the path; endpoints get extra
// retransmission budget so an impaired-but-untampered connection still
// completes, and the capture tap verifies checksums (corrupted packets
// behave as loss, never as records).
func SimulateConn(spec *ConnSpec, u *domains.Universe, capCfg capture.Config, imp faults.Config) *capture.Connection {
	x := simPool.Get().(*simCtx)
	defer simPool.Put(x)
	return x.simulateConn(spec, u, capCfg, imp)
}

func (x *simCtx) simulateConn(spec *ConnSpec, u *domains.Universe, capCfg capture.Config, imp faults.Config) *capture.Connection {
	rng := x.begin(spec)

	clientIP := spec.AS.RandomAddr(rng, spec.V6)
	if spec.HostIdx >= 0 {
		clientIP = spec.AS.HostAddr(spec.HostIdx, spec.V6)
	}
	serverIP := serverIP4
	if spec.V6 {
		serverIP = serverIP6
	}
	dstPort := uint16(443)
	if !spec.UseTLS {
		dstPort = 80
	}
	srcPort := uint16(32768 + rng.IntN(28000))

	cprof := tcpsim.NetProfile{
		LocalIP: clientIP, RemoteIP: serverIP,
		LocalPort: srcPort, RemotePort: dstPort,
		InitialTTL: spec.TTLInit,
		IPID:       tcpsim.IPIDCounter,
		IPIDValue:  uint16(rng.IntN(60000)),
		Window:     64240,
		SYNOptions: true,
	}
	if spec.IPIDZero {
		cprof.IPID = tcpsim.IPIDZero
	}
	if spec.Behavior == tcpsim.BehaviorScanner {
		cprof.IPID = tcpsim.IPIDFixed
		cprof.IPIDValue = 54321
		cprof.SYNOptions = false
		cprof.InitialTTL = 255
	}
	sprof := tcpsim.NetProfile{
		LocalIP: serverIP, RemoteIP: clientIP,
		LocalPort: dstPort, RemotePort: srcPort,
		InitialTTL: 64, IPID: tcpsim.IPIDCounter, IPIDValue: uint16(rng.IntN(60000)),
		Window: 65535, SYNOptions: true,
	}

	ccfg := tcpsim.ClientConfig{Net: cprof, Behavior: spec.Behavior}
	if imp.Enabled() {
		// Real stacks retry far more than our clean-path defaults; give
		// impaired connections the budget to survive burst loss.
		ccfg.SYNRetries = 6
		ccfg.DataRetries = 5
	}
	needsRequest := spec.Behavior == tcpsim.BehaviorNormal ||
		spec.Behavior == tcpsim.BehaviorDoubleSYN ||
		spec.Behavior == tcpsim.BehaviorAbandon ||
		spec.Behavior == tcpsim.BehaviorResetClose
	if spec.Domain != nil && needsRequest {
		ccfg.Segments = requestSegments(spec, rng)
		if spec.SYNPayload {
			// The request rides the SYN; no separate data segment.
			ccfg.SYNPayload = ccfg.Segments[0].Data
			ccfg.Segments = ccfg.Segments[1:]
		}
	}

	x.cli.Reset(ccfg, rng)
	x.srv.Reset(tcpsim.ServerConfig{Net: sprof}, rng)

	mbs := x.mbs[:0]
	if pols := policiesFor(spec, u); len(pols) > 0 {
		mbs = append(mbs, middlebox.NewEngine(pols, rng, x.now))
	}
	pathCfg := netsim.PathConfig{Segments: x.segments(len(mbs)), Middleboxes: mbs}
	if imp.Enabled() {
		// Per-connection impairment chain, deterministically seeded from
		// the spec and the grade so sweeps across grades decorrelate.
		iseed := spec.Seed ^ 0xfa0175
		pathCfg.Hook = faults.NewChain(imp, rand.New(rand.NewPCG(iseed, iseed^splitmixStr(imp.Grade)))).Hook
	}

	if capCfg.Rate == 0 {
		capCfg = capture.DefaultConfig()
	}
	// The deployment's tap never surfaces checksum-broken packets.
	capCfg.VerifyChecksums = true
	return x.run(spec, pathCfg, capCfg)
}

// requestSegments builds the client's data script.
func requestSegments(spec *ConnSpec, rng *rand.Rand) []tcpsim.Segment {
	d := spec.Domain
	if spec.UseTLS {
		var random [32]byte
		for i := 0; i < len(random); i += 8 {
			v := rng.Uint64()
			for j := 0; j < 8; j++ {
				random[i+j] = byte(v >> (8 * j))
			}
		}
		hello := tlswire.BuildClientHello(tlswire.ClientHelloSpec{ServerName: d.Name, Random: random})
		segs := []tcpsim.Segment{{Data: hello}}
		if spec.KeywordTrigger {
			// Enterprise firewalls see inside TLS (trusted-cert MitM,
			// §4.1); we model the visible keyword as a follow-up
			// cleartext-equivalent record after the response.
			segs = append(segs, tcpsim.Segment{
				Data:          []byte("\x17\x03\x03 app-data " + blockKeyword),
				AfterResponse: true,
			})
		}
		return segs
	}
	req := httpwire.BuildRequest("GET", d.Name, "/", map[string]string{"User-Agent": "Mozilla/5.0"})
	segs := []tcpsim.Segment{{Data: req}}
	if spec.KeywordTrigger {
		segs = append(segs, tcpsim.Segment{
			Data:          httpwire.BuildRequest("GET", d.Name, "/"+blockKeyword, map[string]string{"User-Agent": "Mozilla/5.0"}),
			AfterResponse: true,
		})
	} else if rng.Float64() < 0.25 {
		// Some keep-alive second requests, so Post-Data prefixes exist
		// organically.
		segs = append(segs, tcpsim.Segment{
			Data:          httpwire.BuildRequest("GET", d.Name, "/page2", nil),
			AfterResponse: true,
		})
	}
	return segs
}

// SimulateEvasive runs a connection against the §6 "ideal censor"
// (middlebox.EvasiveCensor) instead of the spec's configured policy,
// for the evasion blind-spot experiment.
func SimulateEvasive(spec *ConnSpec, u *domains.Universe) *capture.Connection {
	c := spec.Country
	ev := middlebox.NewEvasiveCensor(func(d string) bool {
		if dom := u.ByName(d); dom != nil {
			return IsBlocked(c, dom)
		}
		return false
	})
	return simulateWith(spec, ev)
}

// simulateWith is SimulateConn with an explicit middlebox chain.
func simulateWith(spec *ConnSpec, mb netsim.Middlebox) *capture.Connection {
	x := simPool.Get().(*simCtx)
	defer simPool.Put(x)
	return x.simulateWith(spec, mb)
}

func (x *simCtx) simulateWith(spec *ConnSpec, mb netsim.Middlebox) *capture.Connection {
	rng := x.begin(spec)
	clientIP := spec.AS.RandomAddr(rng, spec.V6)
	serverIP := serverIP4
	if spec.V6 {
		serverIP = serverIP6
	}
	dstPort := uint16(443)
	if !spec.UseTLS {
		dstPort = 80
	}
	srcPort := uint16(32768 + rng.IntN(28000))
	cprof := tcpsim.NetProfile{
		LocalIP: clientIP, RemoteIP: serverIP,
		LocalPort: srcPort, RemotePort: dstPort,
		InitialTTL: spec.TTLInit, IPID: tcpsim.IPIDCounter,
		IPIDValue: uint16(rng.IntN(60000)), Window: 64240, SYNOptions: true,
	}
	sprof := tcpsim.NetProfile{
		LocalIP: serverIP, RemoteIP: clientIP,
		LocalPort: dstPort, RemotePort: srcPort,
		InitialTTL: 64, IPID: tcpsim.IPIDCounter, IPIDValue: uint16(rng.IntN(60000)),
		Window: 65535, SYNOptions: true,
	}
	ccfg := tcpsim.ClientConfig{Net: cprof, Behavior: spec.Behavior}
	if spec.Domain != nil {
		ccfg.Segments = requestSegments(spec, rng)
	}
	x.cli.Reset(ccfg, rng)
	x.srv.Reset(tcpsim.ServerConfig{Net: sprof}, rng)
	x.mbs[0] = mb
	pathCfg := netsim.PathConfig{Segments: x.segments(1), Middleboxes: x.mbs[:1]}
	return x.run(spec, pathCfg, capture.DefaultConfig())
}
