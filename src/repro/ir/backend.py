"""Execution tiers: how concrete layers run IR translation blocks.

Every layer that executes recovered or translated code concretely -- the
DBT mode of the concrete CPU (:mod:`repro.vm.cpu`) and the
synthesized-driver runtime (:mod:`repro.templates.runtime` over
:mod:`repro.synth.module`) -- takes one ``exec_backend`` setting naming
a rung of one ladder:

* ``"step"`` -- the CPU's per-instruction interpreter; the synthesized
  side has no instructions to step, so it tree-walks blocks instead;
* ``"interp"`` -- the tree-walking interpreter
  (:func:`repro.ir.interp.run_block`), zero warm-up cost, used as the
  differential reference;
* ``"blocks"`` -- the generated-source tier
  (:func:`repro.ir.compile.compile_block`), one function per block;
* ``"compiled"`` -- compiled blocks plus profile-guided superblocks
  (:mod:`repro.ir.superblock`), the default everywhere.

All four tiers are observably identical; only speed differs.
:func:`resolve_tier` is the one place a name becomes behaviour.
"""

from repro.ir.compile import compile_block
from repro.ir.interp import run_block


def _run_compiled(block, env):
    return compile_block(block)(env)


#: name -> (block runner ``run(block, env) -> BlockResult``, whether
#: hot block chains fuse into superblocks)
_TIERS = {
    "step": (run_block, False),
    "interp": (run_block, False),
    "blocks": (_run_compiled, False),
    "compiled": (_run_compiled, True),
}

#: The four tier names, slowest first.
TIERS = tuple(_TIERS)


def resolve_tier(name):
    """``(run_block, superblocks)`` for tier ``name``; raises
    ``ValueError`` for anything but the four names in :data:`TIERS`."""
    try:
        return _TIERS[name]
    except (KeyError, TypeError):
        raise ValueError("unknown execution tier %r (one of %s)"
                         % (name, ", ".join(TIERS))) from None
