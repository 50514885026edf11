//! Figure-suite leg: references every member by display string.
fn figures() {
    plot("LRU", "FIFO");
}
