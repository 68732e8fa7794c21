"""Imitation-from-observation at desk scale.

Pipeline: filter a noisy per-frame action-primitive stream into a key
action sequence, estimate planar object poses from instance masks, bind
each action to concrete objects using verb-object co-occurrence statistics,
and execute the bound plan in a deterministic tabletop simulator.
"""
