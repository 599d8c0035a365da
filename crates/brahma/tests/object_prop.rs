//! Property tests for the on-page object layout: any sequence of reference
//! and payload edits behaves exactly like a model `Vec<PhysAddr>` +
//! `Vec<u8>`, and decoding never reads outside the object's footprint.

use brahma::object::{
    find_ref, init_object, insert_ref, insert_ref_at, read_refs, read_view, remove_ref_at,
    set_payload, set_ref, ObjectView,
};
use brahma::{PartitionId, PhysAddr};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Edit {
    InsertRef(u64),
    InsertRefAt(usize, u64),
    RemoveRefAt(usize),
    SetRef(usize, u64),
    SetPayload(Vec<u8>),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<u64>().prop_map(Edit::InsertRef),
        (0usize..12, any::<u64>()).prop_map(|(i, r)| Edit::InsertRefAt(i, r)),
        (0usize..12).prop_map(Edit::RemoveRefAt),
        (0usize..12, any::<u64>()).prop_map(|(i, r)| Edit::SetRef(i, r)),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Edit::SetPayload),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edits_match_model(
        initial_refs in proptest::collection::vec(any::<u64>(), 0..6),
        initial_payload in proptest::collection::vec(any::<u8>(), 0..24),
        offset in 0u16..64,
        edits in proptest::collection::vec(edit_strategy(), 0..40),
    ) {
        let ref_cap = 8u16;
        let payload_cap = 40u16;
        let addr = PhysAddr::new(PartitionId(1), 0, offset);
        let mut page = vec![0u8; 2048];
        let view = ObjectView {
            tag: 5,
            refs: initial_refs.iter().map(|&r| PhysAddr::from_raw(r)).collect(),
            ref_cap,
            payload: initial_payload.clone(),
            payload_cap,
        };
        init_object(&mut page, addr, &view);

        // Model state.
        let mut refs: Vec<PhysAddr> = view.refs.clone();
        let mut payload: Vec<u8> = initial_payload;

        for edit in edits {
            match edit {
                Edit::InsertRef(r) => {
                    let r = PhysAddr::from_raw(r);
                    let got = insert_ref(&mut page, addr, r);
                    if refs.len() < ref_cap as usize {
                        prop_assert_eq!(got.unwrap(), refs.len());
                        refs.push(r);
                    } else {
                        prop_assert!(got.is_err());
                    }
                }
                Edit::InsertRefAt(i, r) => {
                    let r = PhysAddr::from_raw(r);
                    let got = insert_ref_at(&mut page, addr, i, r);
                    if refs.len() < ref_cap as usize && i <= refs.len() {
                        prop_assert!(got.is_ok());
                        refs.insert(i, r);
                    } else {
                        prop_assert!(got.is_err());
                    }
                }
                Edit::RemoveRefAt(i) => {
                    let got = remove_ref_at(&mut page, addr, i);
                    if i < refs.len() {
                        prop_assert_eq!(got.unwrap(), refs.remove(i));
                    } else {
                        prop_assert!(got.is_err());
                    }
                }
                Edit::SetRef(i, r) => {
                    let r = PhysAddr::from_raw(r);
                    let got = set_ref(&mut page, addr, i, r);
                    if i < refs.len() {
                        prop_assert_eq!(got.unwrap(), refs[i]);
                        refs[i] = r;
                    } else {
                        prop_assert!(got.is_err());
                    }
                }
                Edit::SetPayload(p) => {
                    let got = set_payload(&mut page, addr, &p);
                    if p.len() <= payload_cap as usize {
                        prop_assert!(got.is_ok());
                        payload = p;
                    } else {
                        prop_assert!(got.is_err());
                    }
                }
            }
            // Full decode matches the model after every edit.
            let decoded = read_view(&page, addr).unwrap();
            prop_assert_eq!(&decoded.refs, &refs);
            prop_assert_eq!(&decoded.payload, &payload);
            prop_assert_eq!(read_refs(&page, addr).unwrap(), refs.clone());
            // find_ref agrees with a linear scan.
            if let Some(&probe) = refs.first() {
                prop_assert_eq!(
                    find_ref(&page, addr, probe).unwrap(),
                    refs.iter().position(|&r| r == probe)
                );
            }
            // Bytes outside the object's footprint stay zero.
            let size = decoded.size();
            let off = offset as usize;
            prop_assert!(page[..off].iter().all(|&b| b == 0));
            prop_assert!(page[off + size..].iter().all(|&b| b == 0));
        }
    }
}
