//! The color-orbit quotient is a pure accelerator — never an observable.
//!
//! Four claims, pinned against the real Circles protocol (the dev-only
//! dependency cycle is deliberate: Circles is the quotient user that
//! matters):
//!
//! 1. **One table, three builders**: brute-force ordered classification,
//!    the engine's symmetric last-query memo, and the bulk representative
//!    classification of [`quotient_table`] produce bit-identical tables —
//!    while spending strictly decreasing transition-call budgets. The
//!    engine ignores the quotient: exposing it changes neither the table
//!    nor the engine's bill.
//! 2. **Runs cannot tell who built their engine**: fixed-seed reports are
//!    bit-identical with and without the quotient exposed × sparse and
//!    compact activity indexes × cold and warm starts.
//! 3. **`.ppts` v2 round trips**: `save_quotient` → `load` is bit-lossless
//!    with zero protocol calls, `inspect` reports the quotient stats, the
//!    advertised `v1_bytes` is exactly the size of the v1 file written on
//!    demand, and a v2-loaded table re-saves to v1 byte-for-byte.
//! 4. **Row encoding is canonical**: equal-content tables built in
//!    different orders (incremental engine pushes vs bulk sorted rows)
//!    save to byte-identical v1 files — the on-disk representation choice
//!    depends on final row contents, not build history.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_protocol::transition_store::{self, FORMAT_V1, FORMAT_VERSION};
use pp_protocol::{
    quotient_table, Activity, CompactActivity, CountConfig, CountEngine, EnumerableProtocol,
    Protocol, RunReport, SparseActivity, StateQuotient, TransitionTable, UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: u16 = 6;
const BUDGET: u64 = 20_000_000;

/// Forwards to Circles while counting transition calls and masking, on
/// demand, the symmetry flag and/or the color quotient — selecting which
/// discovery path an engine takes.
struct Masked {
    inner: CirclesProtocol,
    sym: bool,
    quotient: bool,
    calls: Cell<u64>,
}

impl Masked {
    fn new(k: u16, sym: bool, quotient: bool) -> Self {
        Masked {
            inner: CirclesProtocol::new(k).expect("valid k"),
            sym,
            quotient,
            calls: Cell::new(0),
        }
    }
}

impl Protocol for Masked {
    type State = CirclesState;
    type Input = Color;
    type Output = Color;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input(&self, i: &Color) -> CirclesState {
        self.inner.input(i)
    }

    fn output(&self, s: &CirclesState) -> Color {
        self.inner.output(s)
    }

    fn transition(&self, a: &CirclesState, b: &CirclesState) -> (CirclesState, CirclesState) {
        self.calls.set(self.calls.get() + 1);
        self.inner.transition(a, b)
    }

    fn is_symmetric(&self) -> bool {
        self.sym && self.inner.is_symmetric()
    }

    fn color_quotient(&self) -> Option<&dyn StateQuotient<CirclesState>> {
        if self.quotient {
            self.inner.color_quotient()
        } else {
            None
        }
    }

    fn fingerprint_param(&self) -> u64 {
        self.inner.fingerprint_param()
    }
}

impl EnumerableProtocol for Masked {
    fn states(&self) -> Vec<CirclesState> {
        self.inner.states()
    }
}

/// A unique temp path per call, cleaned up on drop.
struct TempStore(PathBuf);

impl TempStore {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        TempStore(std::env::temp_dir().join(format!(
            "pp-quotient-discovery-{}-{}.ppts",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Primes a cold engine with the full enumeration and exports its table.
fn primed_table(protocol: &Masked) -> TransitionTable<Masked> {
    let mut engine = CountEngine::from_config(protocol, CountConfig::new(), 1);
    engine.prime_states(protocol.states());
    engine.warm_table()
}

#[test]
fn three_discovery_paths_one_table() {
    let brute = Masked::new(K, false, false);
    let brute_table = primed_table(&brute);
    let reference = brute_table.dump();
    let slots = reference.states.len() as u64;
    assert_eq!(slots, u64::from(K).pow(3));
    assert_eq!(
        brute.calls.get(),
        slots * slots,
        "ordered brute force classifies every ordered pair"
    );

    let memo = Masked::new(K, true, false);
    assert_eq!(primed_table(&memo).dump(), reference);
    assert!(
        memo.calls.get() <= slots * slots / 2 + slots,
        "the symmetric memo halves the ordered bill, got {}",
        memo.calls.get()
    );

    let qmemo = Masked::new(K, true, true);
    assert_eq!(primed_table(&qmemo).dump(), reference);
    assert_eq!(
        qmemo.calls.get(),
        memo.calls.get(),
        "the engine does not consult the quotient: exposing it leaves the bill unchanged"
    );

    let bulk = Masked::new(K, true, true);
    let bulk_table = quotient_table(&bulk).expect("circles exposes a quotient");
    assert_eq!(bulk_table.dump(), reference);
    assert!(
        bulk.calls.get() * u64::from(K) <= memo.calls.get() + slots * u64::from(K),
        "bulk classification folds rotations on top of swaps: {} vs {}",
        bulk.calls.get(),
        memo.calls.get()
    );
}

/// A 48-agent workload with a clear color-0 margin.
fn workload(protocol: &Masked) -> CountConfig<CirclesState> {
    (0..48u16)
        .map(|i| if i % 4 == 0 { Color(0) } else { Color(i % K) })
        .map(|c| protocol.input(&c))
        .collect()
}

fn cold_report<A: Activity>(protocol: &Masked, seed: u64) -> RunReport<Color> {
    let mut engine = CountEngine::<_, _, A>::with_rng(
        protocol,
        workload(protocol),
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(seed),
    );
    let _ = engine.run_until_silent(BUDGET);
    engine.report()
}

fn warm_report<A: Activity>(
    protocol: &Masked,
    seed: u64,
    table: &TransitionTable<Masked>,
) -> RunReport<Color> {
    let mut engine = CountEngine::<_, _, A>::with_snapshot_rng(
        protocol,
        workload(protocol),
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(seed),
        table.snapshot(),
    );
    let _ = engine.run_until_silent(BUDGET);
    engine.report()
}

#[test]
fn reports_identical_across_discovery_activity_and_warmth() {
    let memo = Masked::new(K, true, false);
    let quot = Masked::new(K, true, true);
    let oracle = quotient_table(&quot).expect("circles exposes a quotient");
    for seed in [3, 17] {
        let reference = cold_report::<SparseActivity>(&memo, seed);
        for protocol in [&memo, &quot] {
            assert_eq!(cold_report::<SparseActivity>(protocol, seed), reference);
            assert_eq!(cold_report::<CompactActivity>(protocol, seed), reference);
            assert_eq!(
                warm_report::<SparseActivity>(protocol, seed, &oracle),
                reference
            );
            assert_eq!(
                warm_report::<CompactActivity>(protocol, seed, &oracle),
                reference
            );
        }
    }
}

#[test]
fn v2_store_round_trips_losslessly_and_resaves_v1_bytes() {
    let protocol = Masked::new(K, true, true);
    let table = quotient_table(&protocol).expect("circles exposes a quotient");

    let v2 = TempStore::new();
    let meta = transition_store::save_quotient(&table, &protocol, &v2.0).unwrap();
    assert_eq!(meta.version, FORMAT_VERSION);
    assert_eq!(meta.states as usize, table.len());
    let stats = meta.quotient.expect("v2 stores carry quotient stats");
    assert_eq!(stats.reps, u64::from(K) * u64::from(K));
    assert_eq!(stats.group_order, u32::from(K));
    assert_eq!(transition_store::inspect(&v2.0).unwrap(), meta);

    let calls_before = protocol.calls.get();
    let loaded = transition_store::load(&protocol, &v2.0).unwrap();
    assert_eq!(
        protocol.calls.get(),
        calls_before,
        "orbit expansion on load must make zero protocol calls"
    );
    assert_eq!(loaded.dump(), table.dump());

    // Writing v1 on demand: from the original and from the v2 round trip,
    // byte-for-byte the same file — and exactly as large as the v2 header
    // advertised.
    let v1_direct = TempStore::new();
    let v1_meta = transition_store::save(&table, &protocol, &v1_direct.0).unwrap();
    assert_eq!(v1_meta.version, FORMAT_V1);
    assert_eq!(v1_meta.quotient, None);
    let v1_resaved = TempStore::new();
    transition_store::save(&loaded, &protocol, &v1_resaved.0).unwrap();
    let direct_bytes = std::fs::read(&v1_direct.0).unwrap();
    assert_eq!(direct_bytes, std::fs::read(&v1_resaved.0).unwrap());
    assert_eq!(stats.v1_bytes, direct_bytes.len() as u64);
    assert!(
        stats.v1_bytes > meta.file_bytes,
        "the quotient layout must be smaller than the expanded one"
    );

    // And the expanded table serves warm runs exactly like a cold engine.
    let cold = cold_report::<CompactActivity>(&protocol, 11);
    assert_eq!(warm_report::<CompactActivity>(&protocol, 11, &loaded), cold);
}

#[test]
fn row_encoding_is_canonical_across_build_orders() {
    // Incremental engine discovery densifies rows mid-build (thresholds
    // are judged against the slot count at push time); the bulk builder
    // installs final sorted rows. Equal contents must save equal bytes.
    let protocol = Masked::new(K, true, true);
    let incremental = primed_table(&protocol);
    let bulk = quotient_table(&protocol).expect("circles exposes a quotient");
    assert_eq!(incremental.dump(), bulk.dump());

    let a = TempStore::new();
    let b = TempStore::new();
    transition_store::save(&incremental, &protocol, &a.0).unwrap();
    transition_store::save(&bulk, &protocol, &b.0).unwrap();
    assert_eq!(
        std::fs::read(&a.0).unwrap(),
        std::fs::read(&b.0).unwrap(),
        "equal-content tables must be byte-identical on disk"
    );
}
