"""The library set-up a user pays before the first `library-stream` request.

`library-stream` calls `warm_library` in-process.  Run as a script (with
the package's `src` on PYTHONPATH) it is one `setup_s` probe: a fresh
interpreter that imports the package, builds the model, enumerates the
colourings and fills the lazy caches one stream request uses.
"""

import pentachrome as p


def warm_library():
    model = p.build_polytope()
    colourings = p.enumerate_colourings(model)
    c = colourings[0]
    p.compounds(model)
    p.act(p.ColourSymmetry((2, 1, 3, 4, 5), -1), c, model)
    p.classify_colouring(model, c)
    p.face_parity_signature(model, c)
    p.zigzag_trace(model, c, 0, p.working_handedness(model, c))
    p.antipodal_rule_holds(model, c)
    p.colouring_from_json(p.colouring_to_json(c))
    return model, colourings


if __name__ == "__main__":
    warm_library()
