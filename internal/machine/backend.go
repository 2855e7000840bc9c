package machine

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// The coherence backends (Config.Coherence) differ only in timing. Persist
// ordering is the same question under every backend — "which older version
// of this line must persist first?" — and the sharing list answers it:
// directory serialization makes coherence order, list order and (under
// tardis) write-timestamp order one and the same. What varies is:
//
//   - the invalidation round a write pays (invalDelay below);
//   - under tardis, lease renewals on expired private hits (renewTxn) and
//     the timestamp bookkeeping at each directory instant, made as direct
//     calls on m.tardis where the machine reaches those instants.

// invalDelay is the extra delay a write's invalidation round imposes for n
// remote valid copies: SLC walks the sharing list serially (one hop per
// copy), a MESI bit-vector directory multicasts in parallel (one hop
// regardless of count), tardis sends nothing (logical time jumps past the
// lease frontier instead).
func (m *Machine) invalDelay(n int) sim.Time {
	switch m.cfg.Coherence {
	case CoherenceMESI:
		if n > 0 {
			return m.cfg.NoC.HopLatency
		}
		return 0
	case CoherenceTardis:
		return 0
	default:
		return sim.Time(n) * m.cfg.NoC.HopLatency
	}
}

// renewTxn is a core's Tardis lease renewal in flight: a round trip to the
// home bank that re-extends the lease, with no data transfer and no list
// change. Pooled per core like readTxn/writeTxn — loads block the core, so
// at most one renewal is outstanding per core.
type renewTxn struct {
	m    *Machine
	c    *coreUnit
	line mem.Line
	done func()

	src, bnode int

	dirFn, backFn func()
}

func newRenewTxn(m *Machine, c *coreUnit) *renewTxn {
	t := &renewTxn{m: m, c: c}
	t.dirFn = t.dir
	t.backFn = t.back
	return t
}

// start issues the renewal request to the line's home bank.
func (t *renewTxn) start() {
	m := t.m
	t.src = m.coreNode(t.c.id)
	bank := m.bankOf(t.line)
	t.bnode = m.bankNode(bank)
	reqArrive := m.net.Send(t.src, t.bnode, nil)
	begin := m.banks.Claim(bank, reqArrive, m.cfg.BankOccupancy)
	m.engine.At(begin+m.cfg.LLCLatency, t.dirFn)
}

// dir is the directory-serialization instant of the renewal.
func (t *renewTxn) dir() {
	t.m.tardis.Renew(t.c.id, t.line)
	arrive := t.m.net.Send(t.bnode, t.src, nil)
	t.m.engine.At(arrive, t.backFn)
}

// back serves the (now lease-valid) private hit.
func (t *renewTxn) back() {
	t.m.engine.Schedule(t.m.cfg.PrivHit, t.done)
}
