//! The shared bench protocol wrapper must be indistinguishable from the
//! protocol it wraps in every identity a store, a checkpoint or a discovery
//! path checks — otherwise a bench measures a path real runs never take.

use circles_core::{CirclesProtocol, Color};
use pp_bench::CallCounter;
use pp_protocol::{transition_store, Protocol};

#[test]
fn call_counter_forwards_every_identity_method() {
    let inner = CirclesProtocol::new(7).unwrap();
    let counter = CallCounter::new(&inner);
    assert_eq!(
        transition_store::fingerprint(&counter),
        transition_store::fingerprint(&inner)
    );
    assert_eq!(counter.is_symmetric(), inner.is_symmetric());
    assert_eq!(
        counter.color_quotient().is_some(),
        inner.color_quotient().is_some()
    );
    assert!(
        counter.color_quotient().is_some(),
        "circles exposes its rotation quotient"
    );
    assert_eq!(counter.fingerprint_param(), inner.fingerprint_param());
}

#[test]
fn call_counter_counts_transition_calls() {
    let inner = CirclesProtocol::new(3).unwrap();
    let counter = CallCounter::new(&inner);
    let (a, b) = (counter.input(&Color(0)), counter.input(&Color(1)));
    assert_eq!(counter.transition(&a, &b), inner.transition(&a, &b));
    let _ = counter.is_null_interaction(&b, &a);
    assert_eq!(counter.calls(), 2);
    counter.reset();
    assert_eq!(counter.calls(), 0);
}
