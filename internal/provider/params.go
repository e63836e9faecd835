package provider

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vibe/internal/fabric"
	"vibe/internal/nicsim"
	"vibe/internal/sim"
)

// This file defines the typed parameter catalog over Model: every
// design-choice knob the paper varies (and every cost constant behind its
// figures) gets a name, a unit, and a getter/setter pair, so scenarios can
// derive new models from the built-in five without touching source. The
// catalog is plain closures over struct fields — no reflection anywhere,
// so deriving a model stays off the allocator-heavy path and the compiler
// checks every accessor against the Model definition.

// Kind classifies a parameter's value syntax.
type Kind int

const (
	// KindDuration values are virtual-time costs: "2us", "350ns",
	// "1.5ms", "0.0005s"; a bare number means microseconds (the paper's
	// reporting unit).
	KindDuration Kind = iota
	// KindInt values are plain integers (capacities, byte counts).
	KindInt
	// KindBool values are "true"/"false".
	KindBool
	// KindFloat values are plain floating-point numbers (rates).
	KindFloat
	// KindEnum values are one of a fixed set of lower-case names.
	KindEnum
)

func (k Kind) String() string {
	switch k {
	case KindDuration:
		return "duration"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	default:
		return "enum"
	}
}

// Param is one named, typed knob of the provider model.
type Param struct {
	Name string
	Kind Kind
	Unit string // display unit or, for enums, the value set
	Doc  string

	get func(*Model) string
	set func(*Model, string) error
}

// Get returns the parameter's current value on m in canonical string form
// (the same form Set accepts, so Get/Set round-trips).
func (p *Param) Get(m *Model) string { return p.get(m) }

// Set parses value and stores it on m.
func (p *Param) Set(m *Model, value string) error {
	if err := p.set(m, value); err != nil {
		return fmt.Errorf("provider: param %s: %w", p.Name, err)
	}
	return nil
}

// ParseDuration parses a virtual-time cost: a float with an optional
// ns/us/ms/s suffix; no suffix means microseconds. Values that do not fit
// a Duration (infinities, NaN, beyond about 292 years) are rejected.
func ParseDuration(s string) (sim.Duration, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	unit := float64(sim.Microsecond)
	switch {
	case strings.HasSuffix(t, "ns"):
		unit, t = float64(sim.Nanosecond), t[:len(t)-2]
	case strings.HasSuffix(t, "us"):
		unit, t = float64(sim.Microsecond), t[:len(t)-2]
	case strings.HasSuffix(t, "ms"):
		unit, t = float64(sim.Millisecond), t[:len(t)-2]
	case strings.HasSuffix(t, "s"):
		unit, t = float64(sim.Second), t[:len(t)-1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q (want e.g. 2us, 350ns, 1.5ms)", s)
	}
	if ns := v * unit; math.IsNaN(ns) || math.Abs(ns) >= math.MaxInt64 {
		return 0, fmt.Errorf("duration %q out of range", s)
	}
	return sim.Duration(v * unit), nil
}

// FormatDuration renders a duration in the catalog's canonical form:
// microseconds with a "us" suffix.
func FormatDuration(d sim.Duration) string {
	return strconv.FormatFloat(d.Micros(), 'g', -1, 64) + "us"
}

// Builders for the common parameter kinds. Each takes an accessor
// returning a pointer into the model, which serves as both getter and
// setter. Setters check the parameter's domain before storing, so an
// out-of-domain value is rejected when overrides are compiled — before
// any simulation starts — and never reaches a model.

// durParam is a virtual-time cost: every duration in the catalog is one,
// so none may be negative.
func durParam(name, doc string, f func(*Model) *sim.Duration) Param {
	return Param{
		Name: name, Kind: KindDuration, Unit: "us", Doc: doc,
		get: func(m *Model) string { return FormatDuration(*f(m)) },
		set: func(m *Model, v string) error {
			d, err := ParseDuration(v)
			if err != nil {
				return err
			}
			if d < 0 {
				return fmt.Errorf("cost %q out of range (must be >= 0)", v)
			}
			*f(m) = d
			return nil
		},
	}
}

// intParam is an integer of at least min: every count, size and capacity
// in the catalog has a floor.
func intParam(name, unit, doc string, min int, f func(*Model) *int) Param {
	return Param{
		Name: name, Kind: KindInt, Unit: unit, Doc: doc,
		get: func(m *Model) string { return strconv.Itoa(*f(m)) },
		set: func(m *Model, v string) error {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return fmt.Errorf("bad integer %q", v)
			}
			if n < min {
				return fmt.Errorf("%d out of range (must be >= %d)", n, min)
			}
			*f(m) = n
			return nil
		},
	}
}

func boolParam(name, doc string, f func(*Model) *bool) Param {
	return Param{
		Name: name, Kind: KindBool, Unit: "bool", Doc: doc,
		get: func(m *Model) string { return strconv.FormatBool(*f(m)) },
		set: func(m *Model, v string) error {
			b, err := strconv.ParseBool(strings.TrimSpace(v))
			if err != nil {
				return fmt.Errorf("bad bool %q", v)
			}
			*f(m) = b
			return nil
		},
	}
}

// floatParam is a float for which in holds; domain describes that set in
// the error message. NaN fails every ordered comparison, so a domain
// written as bounds excludes it.
func floatParam(name, unit, doc, domain string, in func(float64) bool, f func(*Model) *float64) Param {
	return Param{
		Name: name, Kind: KindFloat, Unit: unit, Doc: doc,
		get: func(m *Model) string { return strconv.FormatFloat(*f(m), 'g', -1, 64) },
		set: func(m *Model, v string) error {
			x, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return fmt.Errorf("bad float %q", v)
			}
			if !in(x) {
				return fmt.Errorf("%q out of range (must be %s)", v, domain)
			}
			*f(m) = x
			return nil
		},
	}
}

// catalog is built once; parameter order is the Model declaration order so
// listings read like the struct.
var catalog = buildCatalog()

var catalogByName = func() map[string]*Param {
	byName := make(map[string]*Param, len(catalog))
	for i := range catalog {
		byName[strings.ToLower(catalog[i].Name)] = &catalog[i]
	}
	return byName
}()

func buildCatalog() []Param {
	return []Param{
		// Interconnect.
		floatParam("BandwidthBps", "bits/s", "link bandwidth", "positive and finite",
			func(x float64) bool { return x > 0 && x <= math.MaxFloat64 },
			func(m *Model) *float64 { return &m.Network.BandwidthBps }),
		durParam("LinkLatency", "one-hop propagation delay",
			func(m *Model) *sim.Duration { return &m.Network.LinkLatency }),
		durParam("SwitchLatency", "switch forwarding delay",
			func(m *Model) *sim.Duration { return &m.Network.SwitchLatency }),
		intParam("FrameOverhead", "bytes", "per-packet wire framing", 0,
			func(m *Model) *int { return &m.Network.FrameOverhead }),
		floatParam("DropRate", "probability", "per-packet loss probability", "in [0, 1]",
			func(x float64) bool { return x >= 0 && x <= 1 },
			func(m *Model) *float64 { return &m.Network.DropRate }),
		{
			Name: "NetTopology", Kind: KindEnum,
			Unit: strings.Join(fabric.TopologyNames(), "|"),
			Doc:  "interconnect switch graph (crossbar is the single-switch default)",
			get: func(m *Model) string {
				if m.Network.Topology == "" {
					return fabric.TopoCrossbar
				}
				return m.Network.Topology
			},
			set: func(m *Model, v string) error {
				t := strings.ToLower(strings.TrimSpace(v))
				for _, name := range fabric.TopologyNames() {
					if t == name {
						m.Network.Topology = t
						return nil
					}
				}
				return fmt.Errorf("bad topology %q (%s)", v, strings.Join(fabric.TopologyNames(), "|"))
			},
		},
		intParam("NetTopoDegree", "hosts/switch", "host-attachment arity of routed topologies (0 = topology default)", 0,
			func(m *Model) *int { return &m.Network.TopologyDegree }),
		intParam("NetSwitchBufPkts", "packets", "per-output-port switch buffer bound; 0 = unbounded (full queues withhold credit upstream)", 0,
			func(m *Model) *int { return &m.Network.SwitchBufPkts }),
		{
			Name: "NetRoutePolicy", Kind: KindEnum,
			Unit: strings.Join(fabric.RoutePolicyNames(), "|"),
			Doc:  "multipath route selection: failover (deterministic, default) or adaptive (least-queued candidate)",
			get: func(m *Model) string {
				if m.Network.RoutePolicy == "" {
					return fabric.RouteFailover
				}
				return m.Network.RoutePolicy
			},
			set: func(m *Model, v string) error {
				t := strings.ToLower(strings.TrimSpace(v))
				for _, name := range fabric.RoutePolicyNames() {
					if t == name {
						m.Network.RoutePolicy = t
						return nil
					}
				}
				return fmt.Errorf("bad route policy %q (%s)", v, strings.Join(fabric.RoutePolicyNames(), "|"))
			},
		},

		// Non-data-transfer costs.
		durParam("ViCreate", "VI creation cost",
			func(m *Model) *sim.Duration { return &m.ViCreate }),
		durParam("ViDestroy", "VI destruction cost",
			func(m *Model) *sim.Duration { return &m.ViDestroy }),
		durParam("ConnRequestCost", "client-side connection-request cost",
			func(m *Model) *sim.Duration { return &m.ConnRequestCost }),
		durParam("ConnAcceptCost", "server-side connection-accept cost",
			func(m *Model) *sim.Duration { return &m.ConnAcceptCost }),
		durParam("ConnTeardownCost", "connection teardown cost",
			func(m *Model) *sim.Duration { return &m.ConnTeardownCost }),
		durParam("CqCreate", "completion-queue creation cost",
			func(m *Model) *sim.Duration { return &m.CqCreate }),
		durParam("CqDestroy", "completion-queue destruction cost",
			func(m *Model) *sim.Duration { return &m.CqDestroy }),
		durParam("MemRegBase", "memory-registration base cost",
			func(m *Model) *sim.Duration { return &m.MemRegBase }),
		durParam("MemRegPerPage", "memory-registration per-page cost",
			func(m *Model) *sim.Duration { return &m.MemRegPerPage }),
		durParam("MemDeregBase", "memory-deregistration base cost",
			func(m *Model) *sim.Duration { return &m.MemDeregBase }),
		durParam("MemDeregPerPage", "memory-deregistration per-page cost",
			func(m *Model) *sim.Duration { return &m.MemDeregPerPage }),

		// Host data path.
		durParam("PostSendCost", "send-descriptor build+enqueue cost",
			func(m *Model) *sim.Duration { return &m.PostSendCost }),
		durParam("PostRecvCost", "receive-descriptor build+enqueue cost",
			func(m *Model) *sim.Duration { return &m.PostRecvCost }),
		durParam("PerSegmentCost", "cost per data segment beyond the first",
			func(m *Model) *sim.Duration { return &m.PerSegmentCost }),
		durParam("DoorbellCost", "host doorbell cost (MMIO write or trap)",
			func(m *Model) *sim.Duration { return &m.DoorbellCost }),
		boolParam("HostCopies", "kernel copies payloads on both sides (M-VIA)",
			func(m *Model) *bool { return &m.HostCopies }),
		durParam("CopyPerByte", "host copy cost per byte",
			func(m *Model) *sim.Duration { return &m.CopyPerByte }),
		durParam("HostXlatePerPage", "host-side translation cost per page",
			func(m *Model) *sim.Duration { return &m.HostXlatePerPage }),
		durParam("CheckCost", "one polling status check",
			func(m *Model) *sim.Duration { return &m.CheckCost }),
		durParam("CqCheckExtra", "additional cost of checking via a CQ",
			func(m *Model) *sim.Duration { return &m.CqCheckExtra }),
		durParam("BlockWakeCost", "interrupt + wakeup on a blocking wait",
			func(m *Model) *sim.Duration { return &m.BlockWakeCost }),
		durParam("NotifyDispatch", "async completion-handler dispatch cost",
			func(m *Model) *sim.Duration { return &m.NotifyDispatch }),

		// NIC engine.
		{
			Name: "TranslationAt", Kind: KindEnum, Unit: "host|nic",
			Doc: "which processor translates virtual addresses",
			get: func(m *Model) string { return m.TranslationAt.String() },
			set: func(m *Model, v string) error {
				switch strings.ToLower(strings.TrimSpace(v)) {
				case "host":
					m.TranslationAt = TranslateAtHost
				case "nic":
					m.TranslationAt = TranslateAtNIC
				default:
					return fmt.Errorf("bad translation site %q (host|nic)", v)
				}
				return nil
			},
		},
		{
			Name: "TablesAt", Kind: KindEnum, Unit: "host-memory|nic-memory",
			Doc: "where the translation tables live for NIC translation",
			get: func(m *Model) string { return m.TablesAt.String() },
			set: func(m *Model, v string) error {
				switch strings.ToLower(strings.TrimSpace(v)) {
				case "host-memory", "host":
					m.TablesAt = TablesInHostMemory
				case "nic-memory", "nic":
					m.TablesAt = TablesInNICMemory
				default:
					return fmt.Errorf("bad table site %q (host-memory|nic-memory)", v)
				}
				return nil
			},
		},
		intParam("TLBCapacity", "entries", "NIC translation-cache capacity", 0,
			func(m *Model) *int { return &m.TLBCapacity }),
		{
			Name: "TLBPolicy", Kind: KindEnum, Unit: "fifo|lru",
			Doc: "NIC translation-cache replacement policy",
			get: func(m *Model) string { return strings.ToLower(m.TLBPolicy.String()) },
			set: func(m *Model, v string) error {
				switch strings.ToLower(strings.TrimSpace(v)) {
				case "fifo":
					m.TLBPolicy = nicsim.FIFO
				case "lru":
					m.TLBPolicy = nicsim.LRU
				default:
					return fmt.Errorf("bad TLB policy %q (fifo|lru)", v)
				}
				return nil
			},
		},
		durParam("XlateHit", "NIC TLB hit cost per page",
			func(m *Model) *sim.Duration { return &m.XlateHit }),
		durParam("XlateMissHostTable", "NIC TLB miss cost (table in host memory)",
			func(m *Model) *sim.Duration { return &m.XlateMissHostTable }),
		durParam("XlateNICTable", "NIC-resident table lookup cost per page",
			func(m *Model) *sim.Duration { return &m.XlateNICTable }),
		durParam("DoorbellProc", "NIC processing of one doorbell",
			func(m *Model) *sim.Duration { return &m.DoorbellProc }),
		durParam("DescFetch", "NIC descriptor DMA fetch cost",
			func(m *Model) *sim.Duration { return &m.DescFetch }),
		durParam("PerFragment", "NIC send-side work per wire fragment",
			func(m *Model) *sim.Duration { return &m.PerFragment }),
		durParam("PerFragmentRecv", "NIC receive-side work per wire fragment",
			func(m *Model) *sim.Duration { return &m.PerFragmentRecv }),
		durParam("DMAPerByte", "host<->NIC data movement cost per byte",
			func(m *Model) *sim.Duration { return &m.DMAPerByte }),
		durParam("CompletionWrite", "NIC completion write-back cost",
			func(m *Model) *sim.Duration { return &m.CompletionWrite }),
		boolParam("PollSweep", "firmware polls every open VI (Berkeley VIA)",
			func(m *Model) *bool { return &m.PollSweep }),
		durParam("PollPerVI", "poll-sweep cost per open VI beyond the first",
			func(m *Model) *sim.Duration { return &m.PollPerVI }),

		// Wire / transport.
		intParam("WireMTU", "bytes", "fragment payload bytes on the wire", 1,
			func(m *Model) *int { return &m.WireMTU }),
		durParam("AckProcessing", "NIC cost to create or absorb an ack",
			func(m *Model) *sim.Duration { return &m.AckProcessing }),
		intParam("AckBytes", "bytes", "ack wire size", 0,
			func(m *Model) *int { return &m.AckBytes }),
		durParam("RetransmitTimeout", "go-back-N retransmission timeout",
			func(m *Model) *sim.Duration { return &m.RetransmitTimeout }),
		intParam("MaxRetries", "count", "retransmission attempts before failure", 0,
			func(m *Model) *int { return &m.MaxRetries }),
		boolParam("AdaptiveRTO", "adaptive (Jacobson/Karn) retransmission timeout",
			func(m *Model) *bool { return &m.AdaptiveRTO }),

		// VIA attributes.
		intParam("MaxTransferSize", "bytes", "largest single-descriptor transfer", 1,
			func(m *Model) *int { return &m.MaxTransferSize }),
		intParam("MaxSegments", "count", "data segments per descriptor", 1,
			func(m *Model) *int { return &m.MaxSegments }),
		boolParam("SupportsRDMAWrite", "provider implements RDMA write",
			func(m *Model) *bool { return &m.SupportsRDMAWrite }),
		boolParam("SupportsRDMARead", "provider implements RDMA read",
			func(m *Model) *bool { return &m.SupportsRDMARead }),
		{
			Name: "ReliabilityMask", Kind: KindInt, Unit: "bitmask 0-7",
			Doc: "supported reliability levels, 1<<level per level",
			get: func(m *Model) string { return strconv.Itoa(int(m.ReliabilityMask)) },
			set: func(m *Model, v string) error {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil || n < 0 || n > 7 {
					return fmt.Errorf("bad reliability mask %q (0-7)", v)
				}
				m.ReliabilityMask = uint8(n)
				return nil
			},
		},
	}
}

// Params returns the full catalog in declaration order. The returned slice
// is shared; callers must not modify it.
func Params() []*Param {
	ps := make([]*Param, len(catalog))
	for i := range catalog {
		ps[i] = &catalog[i]
	}
	return ps
}

// ParamByName resolves a parameter case-insensitively.
func ParamByName(name string) (*Param, error) {
	if p, ok := catalogByName[strings.ToLower(name)]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("provider: unknown parameter %q (see vibe -params for the catalog)", name)
}

// Override sets one named parameter on m from its string form.
func (m *Model) Override(name, value string) error {
	p, err := ParamByName(name)
	if err != nil {
		return err
	}
	return p.Set(m, value)
}

// Override is one pre-validated parameter assignment, compiled once so
// scenario sweeps can derive many models without re-validating names and
// values per cell.
type Override struct {
	Param *Param
	Value string
}

// Apply sets the override on m. The value was validated at compile time
// and setters are deterministic in the value alone, so Apply cannot fail.
func (o Override) Apply(m *Model) { _ = o.Param.set(m, o.Value) }

// CompileOverrides validates a name->value set against the catalog and
// returns appliers in sorted name order (deterministic regardless of map
// iteration).
func CompileOverrides(set map[string]string) ([]Override, error) {
	if len(set) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	ovs := make([]Override, 0, len(names))
	scratch := &Model{}
	for _, name := range names {
		p, err := ParamByName(name)
		if err != nil {
			return nil, err
		}
		if err := p.Set(scratch, set[name]); err != nil {
			return nil, err
		}
		ovs = append(ovs, Override{Param: p, Value: set[name]})
	}
	return ovs, nil
}
