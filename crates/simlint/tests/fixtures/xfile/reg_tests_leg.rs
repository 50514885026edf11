//! Differential-test leg: exercises every registry member by identifier.
fn battery() {
    let _ = (Lru::new(), Fifo::new());
}
