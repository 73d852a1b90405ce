//! Document storage in document order.

use crate::query::{self, QueryError};
use xmorph_pagestore::{Store, StoreError, StoreResult};

/// Chunk size for document segments: most of a page, so a sequential
/// scan of chunks is a sequential scan of pages.
const CHUNK: usize = 3500;

/// A collection of XML documents stored in document order, queryable
/// with a FLWOR subset of XQuery.
#[derive(Debug, Clone)]
pub struct XqliteDb {
    store: Store,
}

fn chunk_key(name: &str, index: u32) -> Vec<u8> {
    let mut k = Vec::with_capacity(name.len() + 5);
    k.extend_from_slice(name.as_bytes());
    k.push(0); // separator: names cannot contain NUL
    k.extend_from_slice(&index.to_be_bytes());
    k
}

impl XqliteDb {
    /// Wrap a pagestore.
    pub fn new(store: Store) -> XqliteDb {
        XqliteDb { store }
    }

    /// An ephemeral in-memory database.
    pub fn in_memory() -> XqliteDb {
        XqliteDb::new(Store::in_memory())
    }

    /// The underlying store (for I/O statistics).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Store a document under `name`, in document order, split into
    /// page-sized chunks. Replaces any previous document of that name.
    pub fn store_document(&self, name: &str, xml: &str) -> StoreResult<()> {
        assert!(!name.contains('\0'), "document names cannot contain NUL");
        let tree = self.store.open_tree("documents")?;
        let bytes = xml.as_bytes();
        let mut index = 0u32;
        let mut off = 0usize;
        while off < bytes.len() {
            // Split on a UTF-8 boundary at or below CHUNK.
            let mut end = (off + CHUNK).min(bytes.len());
            while end < bytes.len() && (bytes[end] & 0b1100_0000) == 0b1000_0000 {
                end -= 1;
            }
            tree.insert(&chunk_key(name, index), &bytes[off..end])?;
            index += 1;
            off = end;
        }
        // Tombstone any stale higher chunks from a previous version.
        loop {
            if !tree.delete(&chunk_key(name, index))? {
                break;
            }
            index += 1;
        }
        Ok(())
    }

    /// Read a document back as a string — the sequential "dump" path the
    /// paper's Fig. 10 baseline measures.
    pub fn load_document(&self, name: &str) -> StoreResult<Option<String>> {
        let tree = self.store.open_tree("documents")?;
        let mut prefix = name.as_bytes().to_vec();
        prefix.push(0);
        let mut out: Vec<u8> = Vec::new();
        let mut found = false;
        let mut chunks = tree.scan_prefix(&prefix);
        while let Some((_, chunk)) = chunks.next_entry()? {
            found = true;
            out.extend_from_slice(&chunk);
        }
        if !found {
            return Ok(None);
        }
        // Chunks are split on UTF-8 boundaries at write time, but a
        // torn shutdown can hand back corrupt chunk bytes — report,
        // don't panic.
        String::from_utf8(out)
            .map(Some)
            .map_err(|_| StoreError::Corrupt("document chunks are not valid UTF-8"))
    }

    /// List stored document names.
    pub fn document_names(&self) -> StoreResult<Vec<String>> {
        let tree = self.store.open_tree("documents")?;
        let mut names = Vec::new();
        let mut keys = tree.range(..);
        while let Some(key) = keys.next_key()? {
            if let Some(pos) = key.iter().position(|&b| b == 0) {
                let name = String::from_utf8_lossy(&key[..pos]).to_string();
                if names.last() != Some(&name) {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }

    /// Evaluate an XQuery (FLWOR subset) against the collection. The
    /// `doc("name")` function loads documents from this database.
    pub fn query(&self, query_text: &str) -> Result<String, QueryError> {
        query::evaluate(self, query_text)
    }

    /// The paper's baseline query: dump a whole document wrapped in a
    /// `<data>` element — eXist's best case.
    pub fn dump_wrapped(&self, name: &str, root: &str) -> Result<String, QueryError> {
        self.query(&format!(
            "for $b in doc(\"{name}\")/{root} return <data>{{$b}}</data>"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_load_round_trip() {
        let db = XqliteDb::in_memory();
        let xml = "<a><b>hello</b></a>";
        db.store_document("doc.xml", xml).unwrap();
        assert_eq!(db.load_document("doc.xml").unwrap().as_deref(), Some(xml));
        assert_eq!(db.load_document("missing.xml").unwrap(), None);
    }

    #[test]
    fn large_document_chunks() {
        let db = XqliteDb::in_memory();
        let mut xml = String::from("<root>");
        for i in 0..2000 {
            xml.push_str(&format!("<item>{i} — value</item>"));
        }
        xml.push_str("</root>");
        db.store_document("big.xml", &xml).unwrap();
        assert_eq!(
            db.load_document("big.xml").unwrap().as_deref(),
            Some(xml.as_str())
        );
    }

    #[test]
    fn replace_shrinks_cleanly() {
        let db = XqliteDb::in_memory();
        let big = format!("<r>{}</r>", "x".repeat(20_000));
        db.store_document("d", &big).unwrap();
        let small = "<r>tiny</r>";
        db.store_document("d", small).unwrap();
        assert_eq!(db.load_document("d").unwrap().as_deref(), Some(small));
    }

    #[test]
    fn multibyte_chunk_boundaries() {
        let db = XqliteDb::in_memory();
        let xml = format!("<r>{}</r>", "é☃".repeat(5000));
        db.store_document("uni", &xml).unwrap();
        assert_eq!(
            db.load_document("uni").unwrap().as_deref(),
            Some(xml.as_str())
        );
    }

    #[test]
    fn document_names_listed() {
        let db = XqliteDb::in_memory();
        db.store_document("a.xml", "<a/>").unwrap();
        db.store_document("b.xml", "<b/>").unwrap();
        assert_eq!(db.document_names().unwrap(), vec!["a.xml", "b.xml"]);
    }

    #[test]
    fn a_read_fault_never_loads_a_short_document() {
        use xmorph_pagestore::{FaultScript, FaultStorage};
        // A pool far smaller than the document's chunk leaves, so the
        // load reads most of them from the device.
        let open = |image: Vec<u8>, script: FaultScript| {
            let (storage, handle) = FaultStorage::with_image(image, script);
            let store = Store::options()
                .capacity(4)
                .shards(1)
                .with_storage(Box::new(storage))
                .unwrap();
            (XqliteDb::new(store), handle)
        };
        let xml = format!("<r>{}</r>", "<item>chunked value</item>".repeat(2000));
        let image = {
            let (storage, handle) = FaultStorage::new(FaultScript::none());
            let store = Store::options()
                .capacity(4)
                .shards(1)
                .with_storage(Box::new(storage))
                .unwrap();
            XqliteDb::new(store.clone())
                .store_document("d", &xml)
                .unwrap();
            store.close().unwrap();
            handle.image()
        };
        let (db, handle) = open(image.clone(), FaultScript::none());
        let first = handle.reads();
        assert_eq!(
            db.load_document("d").unwrap().as_deref(),
            Some(xml.as_str())
        );
        let last = handle.reads();
        assert!(
            last - first > 10,
            "the load read only {} pages",
            last - first
        );
        let mut errors = 0;
        for k in first..last {
            let (db, _) = open(image.clone(), FaultScript::none().fail_read(k));
            match db.load_document("d") {
                Ok(doc) => assert_eq!(doc.as_deref(), Some(xml.as_str()), "read {k}"),
                Err(_) => errors += 1,
            }
        }
        assert!(errors > 0, "no injected read reached the load");
    }

    #[test]
    fn dump_wrapped_matches_paper_query() {
        let db = XqliteDb::in_memory();
        db.store_document("x.xml", "<site><a>1</a></site>").unwrap();
        let out = db.dump_wrapped("x.xml", "site").unwrap();
        assert_eq!(out, "<data><site><a>1</a></site></data>");
    }
}
