//! Consistent registry: every table member appears on every leg.
zoo! {
    "lru" => Lru(Lru) = Lru::new();
    "fifo" => Fifo(Fifo) = Fifo::new();
}
