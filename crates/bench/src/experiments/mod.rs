//! One module per paper artefact. Each exposes a `run(...)` function
//! returning structured results so the repro binaries and the tests share
//! the same code path.

pub mod attack_e2e;
pub mod campus;
pub mod fig10;
pub mod fig11_12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig6_9;
pub mod fleet;
pub mod overhead;
pub mod roc;
pub mod table1;
pub mod table2;
